"""Tests for the baseline ordering protocols."""

import itertools
import random

import pytest

from repro.baselines.central_sequencer import CentralSequencerFabric
from repro.baselines.propagation_tree import PropagationTreeFabric
from repro.baselines.vector_clock import VectorClockFabric
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def pairwise_consistent(fabric, n_hosts):
    for a, b in itertools.combinations(range(n_hosts), 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        if [m for m in seq_a if m in common] != [m for m in seq_b if m in common]:
            return False
    return True


# ---------------------------------------------------------------------------
# Central sequencer
# ---------------------------------------------------------------------------


def central(env):
    return CentralSequencerFabric(triangle_membership(), env.hosts, env.routing)


def test_central_delivers_to_members(env32):
    fabric = central(env32)
    fabric.publish(0, 0, "hello")
    fabric.run()
    for member in (0, 1, 3):
        assert [r.payload for r in fabric.delivered(member)] == ["hello"]
    assert fabric.delivered(2) == []


def test_central_orders_consistently(env32):
    fabric = central(env32)
    rng = random.Random(0)
    for _ in range(20):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert pairwise_consistent(fabric, 4)


def test_central_total_order_is_global(env32):
    # Unlike the paper's protocol, the coordinator orders even unrelated
    # messages: global sequence numbers are strictly increasing.
    fabric = central(env32)
    fabric.publish(0, 0)
    fabric.publish(2, 2)
    fabric.run()
    seqs = sorted(
        r.stamp.group_seq for h in range(4) for r in fabric.delivered(h)
    )
    assert seqs[0] == 1


def test_central_coordinator_load_counts_everything(env32):
    fabric = central(env32)
    for i in range(9):
        fabric.publish(0, 0)
    fabric.run()
    assert fabric.coordinator_load() == 9


def test_central_unknown_group_rejected(env32):
    fabric = central(env32)
    with pytest.raises(KeyError):
        fabric.publish(0, 99)


def test_central_explicit_router(env32):
    fabric = CentralSequencerFabric(
        triangle_membership(), env32.hosts, env32.routing, coordinator_router=0
    )
    assert fabric.coordinator.router == 0


# ---------------------------------------------------------------------------
# Vector clocks (per-group causal multicast)
# ---------------------------------------------------------------------------


def vc(env):
    return VectorClockFabric(triangle_membership(), env.hosts, env.routing)


def test_vc_delivers_to_members(env32):
    fabric = vc(env32)
    fabric.publish(0, 0, "x")
    fabric.run()
    for member in (0, 1, 3):
        assert [r.payload for r in fabric.delivered(member)] == ["x"]


def test_vc_requires_sender_membership(env32):
    fabric = vc(env32)
    with pytest.raises(ValueError):
        fabric.publish(2, 0)  # host 2 not in group 0


def test_vc_fifo_per_sender(env32):
    fabric = vc(env32)
    for i in range(6):
        fabric.publish(0, 0, i)
    fabric.run()
    assert [r.payload for r in fabric.delivered(3)] == list(range(6))
    assert fabric.pending_messages() == {}


def test_vc_causal_within_group(env32):
    fabric = vc(env32)
    first = fabric.publish(0, 0, "question")
    fabric.run()
    second = fabric.publish(1, 0, "answer")
    fabric.run()
    for member in (0, 1, 3):
        order = [r.msg_id for r in fabric.delivered(member)]
        assert order.index(first) < order.index(second)


def test_vc_no_holdback_leak(env32):
    fabric = vc(env32)
    rng = random.Random(1)
    for _ in range(20):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert fabric.pending_messages() == {}


def test_vc_overhead_scales_with_group_size(env32):
    membership = GroupMembership()
    membership.create_group(range(4), group_id=0)
    membership.create_group(range(16), group_id=1)
    fabric = VectorClockFabric(membership, env32.hosts, env32.routing)

    def wire_bytes_per_copy(group):
        before = {key: c.bytes_sent for key, c in fabric.network.channels.items()}
        fabric.publish(0, group)
        sent = [
            c.bytes_sent - before.get(key, 0)
            for key, c in fabric.network.channels.items()
        ]
        return sum(sent) / sum(1 for n in sent if n)

    assert wire_bytes_per_copy(1) > wire_bytes_per_copy(0)


def test_vc_can_disagree_on_concurrent_cross_group_order(env32):
    # The anomaly the paper's protocol prevents: per-group causal delivery
    # gives no cross-group consistency.  We don't assert disagreement
    # (it's timing dependent) — only that the protocol never deadlocks.
    fabric = vc(env32)
    rng = random.Random(3)
    for _ in range(30):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert fabric.pending_messages() == {}


# ---------------------------------------------------------------------------
# Propagation tree (Garcia-Molina & Spauster)
# ---------------------------------------------------------------------------


def tree(env):
    return PropagationTreeFabric(triangle_membership(), env.hosts, env.routing)


def test_tree_delivers_to_members(env32):
    fabric = tree(env32)
    fabric.publish(0, 0, "x")
    fabric.run()
    for member in (0, 1, 3):
        assert [r.payload for r in fabric.delivered(member)] == ["x"]
    assert fabric.delivered(2) == []


def test_tree_root_is_busiest_host(env32):
    fabric = tree(env32)
    # Host 1 (B) subscribes to all three groups -> tree root.
    assert fabric._order[0] == 1


def test_tree_entry_node_is_common_ancestor(env32):
    fabric = tree(env32)
    for group in (0, 1, 2):
        entry = fabric.entry_node(group)
        for member in fabric.membership.members(group):
            assert entry in fabric._ancestors(member)


def test_tree_orders_consistently(env32):
    fabric = tree(env32)
    rng = random.Random(4)
    for _ in range(25):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert pairwise_consistent(fabric, 4)


def test_tree_interior_nodes_forward(env32):
    fabric = tree(env32)
    for i in range(10):
        fabric.publish(0, 0)
        fabric.publish(2, 2)
    fabric.run()
    load = fabric.forwarding_load()
    assert sum(load.values()) > 0


def test_tree_unknown_group_rejected(env32):
    fabric = tree(env32)
    with pytest.raises(KeyError):
        fabric.publish(0, 42)


def test_tree_consistency_random_memberships(env32):
    rng = random.Random(9)
    membership = GroupMembership()
    for _ in range(5):
        membership.create_group(rng.sample(range(16), rng.randint(2, 10)))
    fabric = PropagationTreeFabric(membership, env32.hosts, env32.routing)
    for _ in range(40):
        group = rng.choice(membership.groups())
        sender = rng.choice(sorted(membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert pairwise_consistent(fabric, 16)


# ---------------------------------------------------------------------------
# Cross-protocol comparison sanity
# ---------------------------------------------------------------------------


def test_central_load_exceeds_decentralized_max(env32):
    """The paper's scalability claim: atoms see less traffic than a
    coordinator, which handles every message in the system."""
    membership = triangle_membership()
    central_fabric = CentralSequencerFabric(membership, env32.hosts, env32.routing)
    decentralized = env32.build_fabric(triangle_membership())
    rng = random.Random(5)
    sends = []
    for _ in range(30):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(membership.members(group)))
        sends.append((sender, group))
    for sender, group in sends:
        central_fabric.publish(sender, group)
        decentralized.publish(sender, group)
    central_fabric.run()
    decentralized.run()
    max_atom_messages = max(
        r.messages_sequenced + r.messages_passed_through
        for p in decentralized.node_processes.values()
        for r in p.atom_runtimes.values()
    )
    assert central_fabric.coordinator_load() == 30
    assert max_atom_messages <= 30
