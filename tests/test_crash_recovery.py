"""Tests for sequencing-node fail-stop crash and recovery.

The retransmission buffers of Section 3.1 exist so "the message can be
removed from the buffer when this sequencer receives an acknowledgment
from the next hop" — i.e., to mask sequencer unavailability.  These tests
crash sequencing nodes mid-run and assert that liveness and consistency
survive.
"""

import itertools
import random

import pytest

from repro.pubsub.membership import GroupMembership
from repro.runtime.errors import SimulationError


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def reliable_fabric(env, **kwargs):
    return env.build_fabric(
        triangle_membership(), retransmit_timeout=5.0, **kwargs
    )


def busiest_node(fabric):
    # The node hosting the most atoms sees the most traffic.
    return max(
        fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
    )


def test_crash_requires_reliability(env32):
    fabric = env32.build_fabric(triangle_membership())  # not reliable
    node = next(iter(fabric.node_processes.values()))
    with pytest.raises(SimulationError):
        node.crash(10.0)


def test_crash_duration_positive(env32):
    fabric = reliable_fabric(env32)
    node = next(iter(fabric.node_processes.values()))
    with pytest.raises(ValueError):
        node.crash(0.0)


def test_messages_survive_crash(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    # Crash the node just as traffic starts.
    fabric.sim.schedule(0.5, node.crash, 30.0)
    for i in range(8):
        fabric.publish(0, 0, i)
        fabric.publish(2, 2, 100 + i)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert node.crashes == 1
    # Everything was delivered despite the downtime.
    assert len([r for r in fabric.delivered(1)]) == 16


def test_crash_drops_then_retransmission_recovers(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule(0.5, node.crash, 25.0)
    for i in range(5):
        fabric.publish(0, 0, i)
    fabric.run()
    assert node.packets_dropped_while_down > 0
    assert [r.payload for r in fabric.delivered(3)] == list(range(5))


def test_order_consistent_across_crash(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule(1.0, node.crash, 20.0)
    rng = random.Random(1)
    for _ in range(20):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert fabric.pending_messages() == {}
    for a, b in itertools.combinations(range(4), 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]


def test_crash_increases_latency(env32):
    def delivery_time(crash):
        fabric = reliable_fabric(env32)
        if crash:
            node = busiest_node(fabric)
            fabric.sim.schedule(0.1, node.crash, 40.0)
        fabric.publish(0, 0, "x")
        fabric.run()
        return fabric.delivered(3)[0].time

    assert delivery_time(crash=True) > delivery_time(crash=False)


def test_repeated_crashes(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule(0.5, node.crash, 10.0)
    fabric.sim.schedule(30.0, node.crash, 10.0)
    for i in range(6):
        fabric.sim.schedule(i * 8.0, fabric.publish, 0, 0, i)
    fabric.run()
    assert node.crashes == 2
    assert [r.payload for r in fabric.delivered(3)] == list(range(6))


def test_crash_with_service_time(env32):
    fabric = env32.build_fabric(
        triangle_membership(), retransmit_timeout=5.0, service_time=1.0
    )
    node = busiest_node(fabric)
    for i in range(10):
        fabric.publish(0, 0, i)
    # Crash while accepted work sits in the service queue: it must resume.
    fabric.sim.schedule(3.0, node.crash, 15.0)
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == list(range(10))


def test_no_duplicates_after_recovery(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule(0.5, node.crash, 15.0)
    ids = [fabric.publish(1, 1, i) for i in range(7)]
    fabric.run()
    for member in (0, 1, 2):
        got = [r.msg_id for r in fabric.delivered(member)]
        assert sorted(got) == sorted(ids)
        assert len(set(got)) == len(got)


def test_is_down_flag(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    assert not node.is_down
    node.crash(10.0)
    assert node.is_down
