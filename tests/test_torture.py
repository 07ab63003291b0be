"""Composite torture tests: every hostile condition at once.

Loss, sequencer downtime, service-time queueing, membership churn with
state-continuous reconfiguration — stacked together across epochs.  The
invariants (liveness, no duplicates, pairwise consistency, causal chains)
must survive the combination, not just each condition in isolation.
"""

import itertools
import random

import pytest

from repro.core.reconfigure import reconfigure
from repro.pubsub.membership import GroupMembership


def copy_membership(membership):
    clone = GroupMembership()
    for group, members in membership.snapshot().items():
        clone.create_group(members, group_id=group)
    return clone


def check_pairwise(delivered):
    for a, b in itertools.combinations(sorted(delivered), 2):
        seq_a, seq_b = delivered[a], delivered[b]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]


@pytest.mark.parametrize("seed", range(3))
def test_loss_crash_queueing_churn(env32, seed):
    rng = random.Random(seed)
    n_hosts = len(env32.hosts)
    membership = GroupMembership()
    for _ in range(5):
        membership.create_group(rng.sample(range(n_hosts), rng.randint(3, 12)))

    delivered = {h.host_id: [] for h in env32.hosts}
    sent_per_group = {}
    fabric = env32.build_fabric(
        membership, seed=seed, loss_rate=0.15, service_time=0.5
    )

    for epoch in range(3):
        # Crash a random sequencing node shortly into the epoch.
        overlap_nodes = [
            p for p in fabric.node_processes.values() if p.atom_runtimes
        ]
        victim = rng.choice(overlap_nodes)
        fabric.sim.schedule(2.0, victim.crash, 15.0)

        groups = fabric.membership.groups()
        for _ in range(15):
            group = rng.choice(groups)
            sender = rng.choice(sorted(fabric.membership.members(group)))
            fabric.publish(sender, group)
            sent_per_group[group] = sent_per_group.get(group, 0) + 1
        fabric.run()
        assert fabric.pending_messages() == {}, f"epoch {epoch} stuck"
        for host_id in delivered:
            delivered[host_id].extend(
                r.msg_id for r in fabric.delivered(host_id)
            )

        # Churn membership for the next epoch.
        next_membership = copy_membership(fabric.membership)
        victims = [g for g in next_membership.groups() if rng.random() < 0.3]
        for group in victims:
            if len(next_membership.groups()) > 2:
                next_membership.remove_group(group)
        next_membership.create_group(
            rng.sample(range(n_hosts), rng.randint(3, 10))
        )
        fabric = reconfigure(fabric, next_membership, seed=seed + epoch)

    check_pairwise(delivered)
    for host_id, ids in delivered.items():
        assert len(set(ids)) == len(ids), f"host {host_id} saw duplicates"


def test_causal_chain_through_crash_and_loss(env32):
    membership = GroupMembership()
    group = membership.create_group([0, 1, 2, 3, 4])
    fabric = env32.build_fabric(membership, seed=9, loss_rate=0.2, service_time=0.3)
    node = max(fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes))
    fabric.sim.schedule(1.0, node.crash, 10.0)
    chain = []
    for sender in (0, 1, 2, 3, 4):
        chain.append(fabric.publish(sender, group, f"link-{sender}"))
        fabric.run()  # each link observed before the next is sent
    for member in (0, 1, 2, 3, 4):
        assert [r.msg_id for r in fabric.delivered(member)] == chain


def test_epoch_switch_under_queue_pressure(env32):
    """Reconfigure right after a heavy burst drains; counters stay sane."""
    membership = GroupMembership()
    g0 = membership.create_group([0, 1, 2, 3])
    g1 = membership.create_group([2, 3, 4, 5])
    fabric = env32.build_fabric(membership, seed=2, service_time=1.0)
    for i in range(30):
        fabric.publish(i % 4, g0)
    fabric.run()
    next_membership = copy_membership(membership)
    next_membership.join(g0, 9)
    fabric = reconfigure(fabric, next_membership)
    fabric.publish(0, g0)
    fabric.run()
    record = [r for r in fabric.delivered(9)][0]
    # The joined group changed membership, so (per the paper's
    # remove-then-add model) its group-local space restarts ...
    assert record.stamp.group_seq == 1
    # ... while the surviving overlap atom's space continues past the 30
    # messages of the previous epoch.
    atom_seqs = dict(record.stamp.atom_seqs)
    assert all(seq > 30 for seq in atom_seqs.values())
    assert fabric.pending_messages() == {}
    assert g1 in fabric.membership.groups()
