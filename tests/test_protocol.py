"""Integration tests for the ordering fabric (ingress/sequencing/distribution)."""

import itertools

import pytest

from repro.core.placement import random_placement
from repro.core.protocol import LOCAL_HOP_DELAY, OrderingFabric
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


@pytest.fixture()
def fabric(env32):
    return env32.build_fabric(triangle_membership())


def test_publish_delivers_to_all_members(fabric, env32):
    fabric.publish(0, 0, "hello")
    fabric.run()
    for member in (0, 1, 3):
        assert [r.payload for r in fabric.delivered(member)] == ["hello"]
    assert fabric.delivered(2) == []


def test_publish_unknown_group_rejected(fabric):
    with pytest.raises(KeyError):
        fabric.publish(0, 99)


def test_sender_receives_own_message(fabric):
    fabric.publish(0, 0, "echo")
    fabric.run()
    assert [r.payload for r in fabric.delivered(0)] == ["echo"]


def test_delivery_time_after_publish_time(fabric):
    fabric.publish(0, 0)
    fabric.run()
    for record in fabric.delivered(1):
        assert record.time > record.publish_time


def test_figure2_scenario_no_circular_wait(env32):
    """The paper's Figure 2: three messages, consistent order, no deadlock."""
    fabric = env32.build_fabric(triangle_membership())
    fabric.publish(0, 0, "m0")
    fabric.publish(0, 1, "m1")
    fabric.publish(2, 2, "m2")
    fabric.run()
    assert fabric.pending_messages() == {}
    # B (host 1) receives all three messages.
    assert len(fabric.delivered(1)) == 3
    # Every pair of receivers agrees on their common messages.
    for a, b in itertools.combinations(range(4), 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]


def test_stamps_contain_group_and_atom_seqs(fabric):
    fabric.publish(0, 0)
    fabric.run()
    stamp = fabric.delivered(1)[0].stamp
    assert stamp.group == 0
    assert stamp.group_seq == 1
    assert len(stamp.atom_seqs) == len(fabric.graph.atoms_of_group(0))


def test_group_seq_increments_per_group(fabric):
    fabric.publish(0, 0)
    fabric.run()
    fabric.publish(1, 0)
    fabric.run()
    seqs = [r.stamp.group_seq for r in fabric.delivered(3)]
    assert seqs == [1, 2]


def test_per_group_fifo_from_one_sender(fabric):
    for i in range(5):
        fabric.publish(0, 0, i)
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == list(range(5))


def test_messages_to_singleton_overlap_group(env32):
    membership = GroupMembership()
    membership.create_group([0, 1], group_id=0)
    fabric = env32.build_fabric(membership)
    fabric.publish(0, 0, "only")
    fabric.run()
    assert [r.payload for r in fabric.delivered(1)] == ["only"]


def test_no_overlap_group_uses_ingress_only(env32):
    membership = GroupMembership()
    membership.create_group([0, 1, 2], group_id=0)
    membership.create_group([5, 6], group_id=1)
    fabric = env32.build_fabric(membership)
    assert fabric.graph.group_path(1)[0].is_ingress_only
    fabric.publish(5, 1, "x")
    fabric.run()
    assert [r.payload for r in fabric.delivered(6)] == ["x"]


def test_sequencing_load_accounts_messages(fabric):
    fabric.publish(0, 0)
    fabric.publish(0, 1)
    fabric.run()
    assert sum(fabric.sequencing_load().values()) >= 2


def test_unicast_delay_symmetric_and_positive(fabric):
    assert fabric.unicast_delay(0, 1) == pytest.approx(fabric.unicast_delay(1, 0))
    assert fabric.unicast_delay(0, 1) > 0
    assert fabric.unicast_delay(2, 2) == pytest.approx(
        2 * fabric.host_processes[2].host.access_delay
    )


def test_trace_records_publish_and_deliver(fabric):
    fabric.publish(0, 0)
    fabric.run()
    assert fabric.trace.count("publish") == 1
    assert fabric.trace.count("deliver") == 3


def test_on_deliver_callback(fabric):
    seen = []
    fabric.on_deliver = lambda host, record: seen.append((host, record.msg_id))
    msg = fabric.publish(0, 0)
    fabric.run()
    assert sorted(seen) == [(0, msg), (1, msg), (3, msg)]


def test_random_placement_still_correct(env32):
    """Placement is an efficiency knob, never a correctness one."""
    membership = triangle_membership()
    import random as _random

    graph = None
    fabric = OrderingFabric(
        membership,
        env32.hosts,
        env32.topology,
        env32.routing,
        seed=1,
        placement=None,
        graph=graph,
    )
    scattered = random_placement(fabric.graph, env32.topology, rng=_random.Random(0))
    fabric2 = OrderingFabric(
        membership,
        env32.hosts,
        env32.topology,
        env32.routing,
        seed=1,
        placement=scattered,
        graph=fabric.graph,
    )
    fabric2.publish(0, 0, "a")
    fabric2.publish(2, 2, "b")
    fabric2.run()
    assert fabric2.pending_messages() == {}
    for a, b in itertools.combinations(range(4), 2):
        seq_a = [r.msg_id for r in fabric2.delivered(a)]
        seq_b = [r.msg_id for r in fabric2.delivered(b)]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]


def test_local_hop_delay_floor():
    assert LOCAL_HOP_DELAY > 0


def test_isolated_runs_have_isolated_latency(env32):
    """Two identical publishes measured in isolation take identical time."""
    membership = triangle_membership()
    fabric = env32.build_fabric(membership)
    fabric.publish(0, 0)
    fabric.run()
    t1 = fabric.delivered(3)[0].time - fabric.delivered(3)[0].publish_time
    fabric.publish(0, 0)
    fabric.run()
    records = fabric.delivered(3)
    t2 = records[1].time - records[1].publish_time
    assert t1 == pytest.approx(t2)


# ---------------------------------------------------------------------------
# Record and packet types
# ---------------------------------------------------------------------------


def test_delivery_record_is_slotted_frozen_and_still_copyable():
    import copy
    import pickle

    from repro.core.messages import Stamp
    from repro.core.protocol import DeliveryRecord

    record = DeliveryRecord(1.5, Stamp(0, 1), "p", 7, 3, 0.5)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.time = 2.0
    assert repr(record) == (
        "DeliveryRecord(time=1.5, stamp=Stamp(group=0, group_seq=1, "
        "atom_seqs=()), payload='p', msg_id=7, sender=3, publish_time=0.5)"
    )
    later = record._replace(time=2.0)
    assert later.time == 2.0 and later != record
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        record._replace(),
    ):
        assert clone == record and hash(clone) == hash(record)


def test_packets_are_slotted_and_keep_their_defaults():
    from repro.core.messages import Stamp
    from repro.core.protocol import (
        AckPacket,
        DataPacket,
        DeliverPacket,
        HeartbeatPing,
        HeartbeatPong,
        HopPacket,
        StabilityAck,
        StableNotice,
    )

    packet = DeliverPacket(
        stamp=Stamp(0, 1), payload=None, msg_id=1, sender=0, publish_time=0.0, dest=2
    )
    assert packet.egress_node == -1
    assert packet == DeliverPacket(Stamp(0, 1), None, 1, 0, 0.0, 2, -1)
    assert repr(packet).endswith("dest=2, egress_node=-1)")
    for cls in (
        AckPacket, DataPacket, DeliverPacket, HeartbeatPing, HeartbeatPong,
        HopPacket, StabilityAck, StableNotice,
    ):
        assert "__dict__" not in dir(cls), cls
