"""Tests for uniform-delivery (stability) tracking."""

import random

from repro.pubsub.membership import GroupMembership
from tests.conftest import golden_snapshot


def membership_two_groups():
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    return membership


def test_stability_off_by_default(env32):
    fabric = env32.build_fabric(membership_two_groups())
    msg = fabric.publish(0, 0)
    fabric.run()
    assert fabric.stable_messages(1) == set()


def test_message_becomes_stable_everywhere(env32):
    fabric = env32.build_fabric(membership_two_groups(), track_stability=True)
    msg = fabric.publish(0, 0)
    fabric.run()
    for member in (0, 1, 2, 3):
        assert msg in fabric.stable_messages(member)
    for non_member in (4, 5):
        assert msg not in fabric.stable_messages(non_member)


def test_stability_only_after_all_deliver(env32):
    """Before quiescence, a message may be delivered locally but not yet
    stable; after quiescence it must be."""
    fabric = env32.build_fabric(membership_two_groups(), track_stability=True)
    msg = fabric.publish(0, 0)
    # Run only until the first delivery happens somewhere.
    while not any(fabric.delivered(h) for h in (0, 1, 2, 3)):
        fabric.sim.step()
    delivered_hosts = [h for h in (0, 1, 2, 3) if fabric.delivered(h)]
    # Freshly delivered but the full ack round-trip cannot be done.
    assert all(msg not in fabric.stable_messages(h) for h in delivered_hosts)
    fabric.run()
    assert all(msg in fabric.stable_messages(h) for h in (0, 1, 2, 3))


def test_stability_many_messages(env32):
    fabric = env32.build_fabric(membership_two_groups(), track_stability=True)
    rng = random.Random(0)
    ids = []
    for _ in range(12):
        group = rng.choice([0, 1])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        ids.append((fabric.publish(sender, group), group))
    fabric.run()
    for msg, group in ids:
        for member in fabric.membership.members(group):
            assert msg in fabric.stable_messages(member)


def test_stability_under_loss(env32):
    fabric = env32.build_fabric(
        membership_two_groups(), track_stability=True, loss_rate=0.25, seed=2
    )
    msg = fabric.publish(1, 0)
    fabric.run()
    for member in (0, 1, 2, 3):
        assert msg in fabric.stable_messages(member)


def test_stability_with_host_crash(env32):
    fabric = env32.build_fabric(
        membership_two_groups(), track_stability=True, retransmit_timeout=5.0
    )
    fabric.sim.schedule(0.1, fabric.host_processes[3].crash, 20.0)
    msg = fabric.publish(0, 0)
    fabric.run()
    # Stability is only declared after the crashed member recovered and
    # delivered; then everyone learns it.
    for member in (0, 1, 2, 3):
        assert msg in fabric.stable_messages(member)


def test_stability_acks_reach_a_relocated_egress_node(env32):
    """The distribution carries no ack target: a member acks to its group's
    egress node (the one hosting the last path atom).  Acks that node
    misses would leave the message unstable.  Relocated mid-run, with
    messages in flight, the node keeps its process and collects them all."""
    fabric = env32.build_fabric(
        env32.membership_from(golden_snapshot()),
        track_stability=True,
        retransmit_timeout=5.0,
    )
    # A group whose path leaves the node that sequenced it first.
    group = next(
        g for g in sorted(fabric.membership.groups())
        if fabric._ingress_of(g)[1] is not fabric._egress_of(g)
    )
    members = sorted(fabric.membership.members(group))
    egress = fabric._egress_of(group)
    seen = []
    collect = egress._collect_stability_ack

    def counted(ack):
        seen.append((ack.msg_id, ack.host))
        collect(ack)

    egress._collect_stability_ack = counted
    sent = [fabric.publish(members[0], group) for _ in range(3)]
    fabric.sim.schedule(
        1.0,
        fabric.relocate_node,
        egress.node_id,
        (egress.machine + 1) % fabric.topology.n_nodes,
    )
    fabric.sim.schedule(2.0, lambda: sent.append(fabric.publish(members[1], group)))
    fabric.run()
    assert fabric.failovers and fabric._egress_of(group) is egress
    for msg in sent:
        for member in members:
            assert msg in fabric.stable_messages(member)
    assert {(msg, member) for msg in sent for member in members} <= set(seen)
    assert not egress._stability_waiting and not egress._stability_members


def test_duplicate_acks_harmless(env32):
    """Retransmitted acks after stability was declared are ignored."""
    fabric = env32.build_fabric(
        membership_two_groups(), track_stability=True, loss_rate=0.3, seed=7
    )
    ids = [fabric.publish(0, 0) for _ in range(5)]
    fabric.run()
    for msg in ids:
        assert msg in fabric.stable_messages(2)
    # All tracking state drained.
    for node in fabric.node_processes.values():
        assert not node._stability_waiting
        assert not node._stability_members
