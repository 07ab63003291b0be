"""Tests for state-continuous epoch reconfiguration.

Covers the paper's Section 5 future-work direction as implemented in
:mod:`repro.core.reconfigure`: surviving sequence spaces continue across
membership changes, new subscribers join mid-stream, retired atoms pass
messages through without stamping, and unsafe reconfigurations are
rejected.
"""

import itertools
import random

import pytest

from repro.core.messages import AtomId
from repro.core.reconfigure import ReconfigurationError, reconfigure
from repro.pubsub.membership import GroupMembership


def base_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    return membership


def copy_membership(membership):
    clone = GroupMembership()
    for group, members in membership.snapshot().items():
        clone.create_group(members, group_id=group)
    return clone


def test_group_sequence_space_continues(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0)
    fabric.publish(1, 0)
    fabric.run()
    new_membership = copy_membership(fabric.membership)
    new_membership.create_group([10, 11], group_id=7)
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(0, 0)
    nxt.run()
    assert [r.stamp.group_seq for r in nxt.delivered(3) if r.stamp.group == 0] == [3]


def test_atom_counter_continues(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(2, 0)
    fabric.publish(2, 1)
    fabric.run()
    atom = AtomId.overlap(0, 1)
    old_counter = next(
        r.seq_counter
        for p in fabric.node_processes.values()
        for a, r in p.atom_runtimes.items()
        if a == atom
    )
    assert old_counter == 2
    new_membership = copy_membership(fabric.membership)
    new_membership.create_group([6, 7], group_id=9)
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(2, 0)
    nxt.run()
    record = next(r for r in nxt.delivered(3) if r.stamp.group == 0)
    assert record.stamp.seq_of(atom) == 3


def test_link_settings_carry_forward(env32):
    fabric = env32.build_fabric(
        base_membership(), loss_rate=0.01, retransmit_timeout=5.0, max_retransmits=2
    )
    nxt = reconfigure(fabric, copy_membership(fabric.membership))
    assert (nxt.loss_rate, nxt.retransmit_timeout, nxt.max_retransmits) == (
        0.01,
        5.0,
        2,
    )


def test_msg_ids_continue(env32):
    fabric = env32.build_fabric(base_membership())
    first = fabric.publish(0, 0)
    fabric.run()
    nxt = reconfigure(fabric, copy_membership(fabric.membership))
    second = nxt.publish(0, 0)
    assert second == first + 1


def test_new_subscriber_joins_midstream(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0, "before")
    fabric.run()
    new_membership = copy_membership(fabric.membership)
    new_membership.join(0, 9)  # host 9 joins group 0
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(0, 0, "after")
    nxt.run()
    assert nxt.pending_messages() == {}
    # The newcomer sees only the new epoch's message...
    assert [r.payload for r in nxt.delivered(9)] == ["after"]
    # ...and existing members see it as a continuation.
    assert [r.payload for r in nxt.delivered(3) if r.stamp.group == 0] == ["after"]


def test_join_creating_new_overlap(env32):
    # Host 4 and 5 join group 0 too, creating a bigger overlap with group 1.
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0)
    fabric.run()
    new_membership = copy_membership(fabric.membership)
    new_membership.join(0, 4)
    new_membership.join(0, 5)
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(4, 0)
    nxt.publish(4, 1)
    nxt.run()
    assert nxt.pending_messages() == {}


def test_remove_group_lazy_retires_but_still_forwards(env32):
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    membership.create_group([0, 1, 4, 5], group_id=2)
    fabric = env32.build_fabric(membership)
    for g in (0, 1, 2):
        fabric.publish(sorted(membership.members(g))[0], g)
    fabric.run()
    new_membership = copy_membership(membership)
    new_membership.remove_group(2)
    nxt = reconfigure(fabric, new_membership, lazy=True)
    retired = [a for a in nxt.graph.retired]
    # Remaining groups still deliver fine through any retired placeholders.
    nxt.publish(0, 0, "x")
    nxt.publish(2, 1, "y")
    nxt.run()
    assert nxt.pending_messages() == {}
    for record in nxt.delivered(3):
        stamped = [a for a, _ in record.stamp.atom_seqs]
        assert all(a not in retired for a in stamped)


def test_reconfigure_strict_mode_rejects_inflight(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0)
    with pytest.raises(ReconfigurationError):
        reconfigure(fabric, copy_membership(fabric.membership), online=False)


def test_online_reconfigure_fences_inflight_traffic(env32):
    fabric = env32.build_fabric(base_membership())
    first = fabric.publish(0, 0, "in-flight")
    # No run(): the message is still on the wire when the switch starts.
    new_membership = copy_membership(fabric.membership)
    new_membership.create_group([10, 11], group_id=7)
    nxt = reconfigure(fabric, new_membership)
    # The fence drained the old epoch: the in-flight message reached every
    # member before the cutover, and nothing is buffered.
    assert [r.payload for r in fabric.delivered(3) if r.stamp.group == 0] == [
        "in-flight"
    ]
    assert fabric.pending_messages() == {}
    assert fabric.fences_outstanding() == {}
    stats = fabric.epoch_switch_stats
    assert stats is not None and stats["online"] and stats["fences"] == 2
    assert nxt.epoch == fabric.epoch + 1
    # The fence consumed one group-local number after the in-flight
    # message, so the next epoch's traffic continues past both.
    nxt.publish(1, 0, "next-epoch")
    nxt.run()
    records = [r for r in nxt.delivered(3) if r.stamp.group == 0]
    assert [r.payload for r in records] == ["next-epoch"]
    assert records[0].stamp.group_seq == 3
    assert records[0].msg_id == first + 3  # two fences took ids in between


def test_online_reconfigure_fences_are_not_app_deliveries(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0)
    before = {h: len(fabric.delivered(h)) for h in range(6)}
    reconfigure(fabric, copy_membership(fabric.membership))
    # The drain delivered the in-flight message but consumed the fences:
    # fences never land in delivered logs or fabric.published.
    for host, count in before.items():
        extra = [r.payload for r in fabric.delivered(host)[count:]]
        assert all(not repr(p).startswith("EpochFence") for p in extra)
    assert all(m not in fabric.published for m in fabric.fences)
    assert set(fabric.fence_expected) == {0, 1}


def full_scan_group_counters(fabric):
    """The pre-optimization implementation: scan every atom runtime."""
    counters = {}
    for process in fabric.node_processes.values():
        for runtime in process.atom_runtimes.values():
            for group, value in runtime.group_local_counters.items():
                counters[group] = max(counters.get(group, 0), value)
    return counters


def test_group_local_counters_ingress_only_matches_full_scan(env32):
    from repro.core.reconfigure import group_local_counters

    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    membership.create_group([0, 1, 4, 5], group_id=2)
    membership.create_group([8, 9], group_id=3)  # never published to
    fabric = env32.build_fabric(membership)
    rng = random.Random(7)
    for _ in range(20):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert group_local_counters(fabric) == full_scan_group_counters(fabric)
    # ...and across an epoch switch, where carried counters are installed
    # at (possibly relocated) ingress atoms.
    new_membership = copy_membership(membership)
    new_membership.remove_group(3)
    new_membership.join(2, 7)
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(0, 0)
    nxt.publish(7, 2)
    nxt.run()
    assert group_local_counters(nxt) == full_scan_group_counters(nxt)


def test_changed_group_restarts_its_space(env32):
    fabric = env32.build_fabric(base_membership())
    fabric.publish(0, 0)
    fabric.publish(0, 0)
    fabric.run()
    new_membership = copy_membership(fabric.membership)
    new_membership.replace_group(0, [0, 1, 2, 3, 8])
    nxt = reconfigure(fabric, new_membership)
    nxt.publish(0, 0)
    nxt.run()
    record = next(r for r in nxt.delivered(8))
    assert record.stamp.group_seq == 1  # fresh space for the changed group


def test_compact_reconfigure_drops_placeholders(env32):
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    fabric = env32.build_fabric(membership)
    fabric.run()
    new_membership = copy_membership(membership)
    new_membership.remove_group(1)
    nxt = reconfigure(fabric, new_membership, lazy=True, compact=True)
    assert not nxt.graph.retired
    assert AtomId.overlap(0, 1) not in nxt.graph.atoms


def test_multi_epoch_consistency(env32):
    """Three epochs of churn: common messages stay consistently ordered
    within each epoch, counters never collide."""
    rng = random.Random(0)
    membership = base_membership()
    fabric = env32.build_fabric(membership)
    all_delivered = {h.host_id: [] for h in env32.hosts}

    def pump(fabric, n):
        groups = fabric.membership.groups()
        for _ in range(n):
            g = rng.choice(groups)
            s = rng.choice(sorted(fabric.membership.members(g)))
            fabric.publish(s, g)
        fabric.run()
        assert fabric.pending_messages() == {}
        for host_id in all_delivered:
            all_delivered[host_id].extend(
                r.msg_id for r in fabric.delivered(host_id)
            )

    pump(fabric, 10)
    m2 = copy_membership(fabric.membership)
    m2.create_group([1, 2, 6, 7], group_id=5)
    fabric = reconfigure(fabric, m2)
    pump(fabric, 10)
    m3 = copy_membership(fabric.membership)
    m3.remove_group(1)
    m3.join(0, 10)
    fabric = reconfigure(fabric, m3)
    pump(fabric, 10)

    for a, b in itertools.combinations(sorted(all_delivered), 2):
        seq_a, seq_b = all_delivered[a], all_delivered[b]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]
        assert len(set(seq_a)) == len(seq_a)


def test_facade_uses_continuity(env32):
    from repro import OrderedPubSub

    bus = OrderedPubSub(n_hosts=12, seed=4)
    group = bus.create_group([0, 1, 2])
    bus.publish(0, group, "a")
    bus.run()
    bus.create_group([5, 6])  # dirty -> epoch switch on next publish
    bus.publish(0, group, "b")
    bus.run()
    records = [r for r in bus.delivered(1)]
    assert [r.payload for r in records] == ["a", "b"]
    # Continuity: the second message continues the group sequence space.
    assert [r.stamp.group_seq for r in records] == [1, 2]
