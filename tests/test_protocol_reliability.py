"""Tests for the reliable link layer: loss, retransmission, FIFO hold-back."""

import itertools
import random

from repro.core.protocol import AckPacket, HopPacket
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def lossy_fabric(env, loss, seed=0):
    return env.build_fabric(triangle_membership(), seed=seed, loss_rate=loss)


def test_loss_enables_reliability(env32):
    fabric = lossy_fabric(env32, 0.2)
    assert fabric.reliable
    fabric_clean = env32.build_fabric(triangle_membership())
    assert not fabric_clean.reliable


def test_all_messages_delivered_under_loss(env32):
    fabric = lossy_fabric(env32, 0.3, seed=3)
    for i in range(10):
        sender = [0, 2, 1][i % 3]
        group = [0, 2, 1][i % 3]
        fabric.publish(sender, group, i)
    fabric.run()
    assert fabric.pending_messages() == {}
    # Host 1 (B) subscribes to everything.
    assert len(fabric.delivered(1)) == 10


def test_no_duplicate_deliveries_under_loss(env32):
    fabric = lossy_fabric(env32, 0.35, seed=5)
    ids = [fabric.publish(0, 0, i) for i in range(8)]
    fabric.run()
    for member in (0, 1, 3):
        got = [r.msg_id for r in fabric.delivered(member)]
        assert sorted(got) == sorted(ids)
        assert len(set(got)) == len(got)


def test_order_consistency_under_loss(env32):
    for seed in range(5):
        fabric = lossy_fabric(env32, 0.25, seed=seed)
        rng = random.Random(seed)
        for _ in range(12):
            group = rng.choice([0, 1, 2])
            sender = rng.choice(sorted(fabric.membership.members(group)))
            fabric.publish(sender, group)
        fabric.run()
        assert fabric.pending_messages() == {}
        for a, b in itertools.combinations(range(4), 2):
            seq_a = [r.msg_id for r in fabric.delivered(a)]
            seq_b = [r.msg_id for r in fabric.delivered(b)]
            common = set(seq_a) & set(seq_b)
            assert [m for m in seq_a if m in common] == [
                m for m in seq_b if m in common
            ]


def test_per_sender_fifo_survives_loss(env32):
    fabric = lossy_fabric(env32, 0.3, seed=11)
    for i in range(10):
        fabric.publish(0, 0, i)
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == list(range(10))


def test_retransmissions_happen(env32):
    fabric = lossy_fabric(env32, 0.4, seed=2)
    for i in range(6):
        fabric.publish(0, 0, i)
    fabric.run()
    total_drops = sum(c.drops for c in fabric.network.channels.values())
    assert total_drops > 0  # loss occurred and was recovered
    assert fabric.pending_messages() == {}


def test_hop_packet_sizes():
    from repro.core.delivery_log import MessageHeader
    from repro.core.messages import Stamp

    inner = MessageHeader(
        stamp=Stamp(0, 1), payload=None, msg_id=1, sender=0, publish_time=0.0
    )
    hop = HopPacket(3, inner)
    assert hop.size_bytes() == 4 + inner.size_bytes()
    assert AckPacket(3).size_bytes() > 0


def test_lossless_runs_have_no_link_state(env32):
    fabric = env32.build_fabric(triangle_membership())
    fabric.publish(0, 0)
    fabric.run()
    assert fabric._links == {}


def test_reliable_lossless_link_layer_roundtrip(env32):
    # Reliability machinery enabled but zero effective loss still works.
    fabric = env32.build_fabric(
        triangle_membership(), loss_rate=1e-9, seed=0
    )
    assert fabric.reliable
    fabric.publish(0, 0, "x")
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == ["x"]
    # All retransmission buffers drained by acks.
    assert all(not link.pending for link in fabric._links.values())


def test_holdback_preserves_hop_fifo(env32):
    # After a run under loss, every link's hold-back must be empty and all
    # packets must have been released in sequence order.
    fabric = lossy_fabric(env32, 0.3, seed=7)
    for i in range(8):
        fabric.publish(2, 2, i)
    fabric.run()
    for link in fabric._links.values():
        assert not link.holdback
        assert not link.pending


def test_high_loss_eventually_delivers(env32):
    fabric = lossy_fabric(env32, 0.6, seed=13)
    fabric.publish(0, 0, "stubborn")
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == ["stubborn"]
