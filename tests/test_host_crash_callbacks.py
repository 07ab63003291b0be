"""Tests for host crashes, delivery callbacks, and new metric helpers."""

import pytest

from repro import OrderedPubSub
from repro.pubsub.membership import GroupMembership
from repro.runtime.errors import SimulationError


def pair_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    return membership


# ---------------------------------------------------------------------------
# Host crash
# ---------------------------------------------------------------------------


def test_host_crash_requires_reliability(env32):
    fabric = env32.build_fabric(pair_membership())
    with pytest.raises(SimulationError):
        fabric.host_processes[1].crash(10.0)


def test_host_crash_duration_positive(env32):
    fabric = env32.build_fabric(pair_membership(), retransmit_timeout=5.0)
    with pytest.raises(ValueError):
        fabric.host_processes[1].crash(-1.0)


def test_host_crash_misses_nothing(env32):
    fabric = env32.build_fabric(pair_membership(), retransmit_timeout=5.0)
    fabric.sim.schedule(0.5, fabric.host_processes[2].crash, 25.0)
    for i in range(6):
        fabric.publish(0, 0, i)
    fabric.run()
    assert [r.payload for r in fabric.delivered(2)] == list(range(6))
    assert fabric.host_processes[2].crashes == 1


def test_host_crash_in_order_after_recovery(env32):
    fabric = env32.build_fabric(pair_membership(), retransmit_timeout=5.0)
    fabric.sim.schedule(0.1, fabric.host_processes[3].crash, 20.0)
    ids = [fabric.publish(1, 0, i) for i in range(5)]
    fabric.run()
    got = [r.msg_id for r in fabric.delivered(3)]
    assert got == ids  # FIFO restored by the hold-back layer


def test_host_crash_other_hosts_unaffected(env32):
    def first_delivery_time(crash):
        fabric = env32.build_fabric(pair_membership(), retransmit_timeout=5.0)
        if crash:
            fabric.sim.schedule(0.1, fabric.host_processes[3].crash, 30.0)
        fabric.publish(0, 0, "x")
        fabric.run()
        return fabric.delivered(1)[0].time

    assert first_delivery_time(True) == pytest.approx(first_delivery_time(False))


# ---------------------------------------------------------------------------
# Facade delivery callback
# ---------------------------------------------------------------------------


def test_on_deliver_callback_via_facade():
    bus = OrderedPubSub(n_hosts=8, seed=1)
    seen = []
    bus.on_deliver = lambda host, record: seen.append((host, record.payload))
    group = bus.create_group([0, 1])
    bus.publish(0, group, "hello")
    bus.run()
    assert sorted(seen) == [(0, "hello"), (1, "hello")]


def test_on_deliver_survives_epoch_switch():
    bus = OrderedPubSub(n_hosts=8, seed=1)
    seen = []
    bus.on_deliver = lambda host, record: seen.append(record.payload)
    group = bus.create_group([0, 1])
    bus.publish(0, group, "a")
    bus.run()
    bus.create_group([3, 4])  # forces a new epoch
    bus.publish(0, group, "b")
    bus.run()
    assert seen.count("a") == 2 and seen.count("b") == 2


def test_on_deliver_can_be_attached_late():
    bus = OrderedPubSub(n_hosts=8, seed=1)
    group = bus.create_group([0, 1])
    bus.publish(0, group, "early")
    bus.run()
    seen = []
    bus.on_deliver = lambda host, record: seen.append(record.payload)
    bus.publish(1, group, "late")
    bus.run()
    assert seen == ["late", "late"]
