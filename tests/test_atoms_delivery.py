"""Unit tests for atom runtime state and receiver delivery logic."""

import pytest

from repro.core.atoms import AtomRuntime, build_atom_runtimes
from repro.core.delivery import DeliveryState
from repro.core.messages import AtomId, Message, Stamp
from repro.core.sequencing_graph import SequencingGraph


def build(snapshot, **kwargs):
    return SequencingGraph.build(
        {g: frozenset(m) for g, m in snapshot.items()}, **kwargs
    )


TRIANGLE = {0: {0, 1, 3}, 1: {0, 1, 2}, 2: {1, 2, 3}}


# ---------------------------------------------------------------------------
# AtomRuntime
# ---------------------------------------------------------------------------


def test_overlap_seq_monotonic():
    runtime = AtomRuntime(AtomId.overlap(0, 1))
    assert [runtime.next_overlap_seq() for _ in range(3)] == [1, 2, 3]


def test_group_local_counters_independent():
    runtime = AtomRuntime(AtomId.overlap(0, 1))
    assert runtime.next_group_local_seq(0) == 1
    assert runtime.next_group_local_seq(1) == 1
    assert runtime.next_group_local_seq(0) == 2


def test_build_runtimes_wires_forwarding_tables():
    graph = build(TRIANGLE)
    runtimes = build_atom_runtimes(graph)
    for group in graph.groups():
        path = graph.group_path(group)
        assert runtimes[path[0]].prev_atom[group] is None
        assert runtimes[path[-1]].next_atom[group] is None
        for a, b in zip(path, path[1:]):
            assert runtimes[a].next_atom[group] == b
            assert runtimes[b].prev_atom[group] == a


def test_process_assigns_group_local_at_ingress():
    graph = build(TRIANGLE)
    runtimes = build_atom_runtimes(graph)
    group = 0
    path = graph.group_path(group)
    msg = Message(1, group, sender=0)
    runtimes[path[0]].process(msg)
    assert msg.group_seq == 1


def test_process_stamps_own_groups_only():
    graph = build(TRIANGLE)
    runtimes = build_atom_runtimes(graph)
    # Find a group with a pass-through atom (the triangle always has one).
    group = next(g for g in graph.groups() if graph.pass_through_atoms(g))
    msg = Message(1, group, sender=0)
    current = graph.group_path(group)[0].number
    while current is not None:  # process returns the next atom's number
        current = runtimes[AtomId.by_number(current)].process(msg)
    stamped = {atom for atom, _ in msg.atom_seqs}
    assert stamped == set(graph.atoms_of_group(group))


def test_process_pass_through_counts():
    graph = build(TRIANGLE)
    runtimes = build_atom_runtimes(graph)
    group = next(g for g in graph.groups() if graph.pass_through_atoms(g))
    passthrough = graph.pass_through_atoms(group)[0]
    msg = Message(1, group, sender=0)
    current = graph.group_path(group)[0].number
    while current is not None:  # process returns the next atom's number
        current = runtimes[AtomId.by_number(current)].process(msg)
    assert runtimes[passthrough].messages_passed_through == 1


def test_process_unknown_group_rejected():
    runtime = AtomRuntime(AtomId.overlap(0, 1))
    with pytest.raises(KeyError):
        runtime.process(Message(1, 5, sender=0))


def test_ingress_only_atom_runtime():
    graph = build({0: {1, 2}})
    runtimes = build_atom_runtimes(graph)
    atom = AtomId.ingress(0)
    msg = Message(1, 0, sender=1)
    assert runtimes[atom].process(msg) is None
    assert msg.group_seq == 1
    assert msg.atom_seqs == ()


def test_runtime_repr():
    runtime = AtomRuntime(AtomId.overlap(0, 1))
    assert "Q(0,1)" in repr(runtime)


# ---------------------------------------------------------------------------
# DeliveryState
# ---------------------------------------------------------------------------


def q(g, h):
    return AtomId.overlap(g, h)


def test_in_order_group_sequence_delivers():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    out1 = state.on_receive(Stamp(0, 1))
    out2 = state.on_receive(Stamp(0, 2))
    assert len(out1) == len(out2) == 1


def test_gap_buffers_until_filled():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    assert state.on_receive(Stamp(0, 2)) == []
    assert state.pending == 1
    released = state.on_receive(Stamp(0, 1))
    assert [s.group_seq for s, _ in released] == [1, 2]
    assert state.pending == 0


def test_relevant_atom_gates_delivery():
    state = DeliveryState(0, groups=[0, 1], relevant_atoms=[q(0, 1)])
    # Message to group 1 holding atom seq 2 must wait for seq 1 (group 0).
    assert state.on_receive(Stamp(1, 1, ((q(0, 1), 2),))) == []
    released = state.on_receive(Stamp(0, 1, ((q(0, 1), 1),)))
    assert [s.group for s, _ in released] == [0, 1]


def test_irrelevant_atom_ignored():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    # Stamp carries an atom this receiver is not in: ignored entirely.
    out = state.on_receive(Stamp(0, 1, ((q(0, 1), 42),)))
    assert len(out) == 1


def test_unsubscribed_group_rejected():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    with pytest.raises(KeyError):
        state.on_receive(Stamp(5, 1))


def test_deliverable_is_pure_check():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    stamp = Stamp(0, 1)
    assert state.deliverable(stamp)
    assert state.deliverable(stamp)  # no side effects
    assert state.expected_group_seq(0) == 1


def test_counters_advance_on_delivery():
    state = DeliveryState(0, groups=[0], relevant_atoms=[q(0, 1)])
    state.on_receive(Stamp(0, 1, ((q(0, 1), 1),)))
    assert state.expected_group_seq(0) == 2
    # Next atom seq expected is 2: a stamp with atom seq 3 must wait.
    assert state.on_receive(Stamp(0, 2, ((q(0, 1), 3),))) == []


def test_chained_release():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    assert state.on_receive(Stamp(0, 3)) == []
    assert state.on_receive(Stamp(0, 2)) == []
    released = state.on_receive(Stamp(0, 1))
    assert [s.group_seq for s, _ in released] == [1, 2, 3]


def test_cross_group_independent_sequences():
    state = DeliveryState(0, groups=[0, 1], relevant_atoms=[])
    out_a = state.on_receive(Stamp(0, 1))
    out_b = state.on_receive(Stamp(1, 1))
    assert len(out_a) == len(out_b) == 1


def test_payload_carried_through():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    released = state.on_receive(Stamp(0, 1), payload="hello")
    assert released[0][1] == "hello"


def test_buffered_high_water():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    state.on_receive(Stamp(0, 3))
    state.on_receive(Stamp(0, 2))
    assert state.buffered_high_water == 2


def test_pending_stamps():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    state.on_receive(Stamp(0, 5))
    assert [s.group_seq for s in state.pending_stamps()] == [5]


def test_delivered_count():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    for seq in (1, 2, 3):
        state.on_receive(Stamp(0, seq))
    assert state.delivered_count == 3


def test_repr():
    state = DeliveryState(7, groups=[0], relevant_atoms=[])
    assert "host=7" in repr(state)


# ---------------------------------------------------------------------------
# Blocking explainer and observers
# ---------------------------------------------------------------------------


def test_blocking_of_names_group_gap():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    blocking = state.blocking_of(Stamp(0, 3))
    assert blocking == ("group", "group:0", 3, 1)


def test_blocking_of_names_atom_gap():
    state = DeliveryState(0, groups=[0], relevant_atoms=[q(0, 1)])
    blocking = state.blocking_of(Stamp(0, 1, ((q(0, 1), 4),)))
    assert blocking == ("atom", "Q(0,1)", 4, 1)


def test_blocking_of_deliverable_is_none():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    assert state.blocking_of(Stamp(0, 1)) is None


def test_blocking_of_checks_group_before_atoms():
    state = DeliveryState(0, groups=[0], relevant_atoms=[q(0, 1)])
    # Both constraints unmet: the group counter is reported (decision order).
    blocking = state.blocking_of(Stamp(0, 2, ((q(0, 1), 2),)))
    assert blocking.kind == "group"


def test_blocking_of_unsubscribed_group_rejected():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    with pytest.raises(KeyError):
        state.blocking_of(Stamp(9, 1))


def test_on_buffer_observer_reports_gap():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    seen = []
    state.on_buffer = lambda stamp, payload, blocking: seen.append(
        (stamp.group_seq, payload, blocking)
    )
    state.on_receive(Stamp(0, 2), payload="late")
    assert seen == [(2, "late", ("group", "group:0", 2, 1))]
    # Deliverable arrivals never hit the observer.
    state.on_receive(Stamp(0, 1))
    assert len(seen) == 1


def test_on_drain_observer_reports_unblocking_arrival():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    drains = []
    state.on_drain = lambda stamp, payload, by_stamp, by_payload: drains.append(
        (stamp.group_seq, payload, by_stamp.group_seq, by_payload)
    )
    state.on_receive(Stamp(0, 2), payload="second")
    state.on_receive(Stamp(0, 1), payload="first")
    assert drains == [(2, "second", 1, "first")]


def test_cascade_drain_releases_in_order_with_root_arrival():
    """One arrival releasing >= 3 buffered messages: delivery order is the
    sequence order and every drain is credited to the root arrival."""
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    drains = []
    state.on_drain = lambda stamp, payload, by_stamp, by_payload: drains.append(
        (stamp.group_seq, by_stamp.group_seq)
    )
    for seq in (4, 2, 3):  # buffered out of order
        assert state.on_receive(Stamp(0, seq)) == []
    assert state.pending == 3
    assert state.buffered_high_water == 3
    released = state.on_receive(Stamp(0, 1))
    assert [s.group_seq for s, _ in released] == [1, 2, 3, 4]
    assert drains == [(2, 1), (3, 1), (4, 1)]
    assert state.pending == 0
    # High-water reflects the cascade peak, not the drained end state.
    assert state.buffered_high_water == 3


def test_on_occupancy_tracks_cascade_depths():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    depths = []
    state.on_occupancy = depths.append
    for seq in (4, 2, 3):
        state.on_receive(Stamp(0, seq))
    state.on_receive(Stamp(0, 1))
    # One callback per net size change: three buffers, then the cascade
    # empties the buffer within a single on_receive (one callback, depth 0).
    assert depths == [1, 2, 3, 0]


def test_on_occupancy_not_called_for_direct_delivery():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    depths = []
    state.on_occupancy = depths.append
    state.on_receive(Stamp(0, 1))
    assert depths == []


def test_partial_cascade_occupancy_and_order():
    """An arrival that releases only part of the buffer: the still-blocked
    message stays, occupancy reflects the partial drain."""
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    depths = []
    state.on_occupancy = depths.append
    state.on_receive(Stamp(0, 2))
    state.on_receive(Stamp(0, 5))  # still blocked after 1-3 arrive
    state.on_receive(Stamp(0, 3))
    released = state.on_receive(Stamp(0, 1))
    assert [s.group_seq for s, _ in released] == [1, 2, 3]
    assert state.pending == 1
    assert depths == [1, 2, 3, 1]
    assert state.buffered_high_water == 3


def test_pending_blocking_reflects_current_counters():
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    state.on_receive(Stamp(0, 3))
    state.on_receive(Stamp(0, 4))
    [(s3, b3), (s4, b4)] = state.pending_blocking()
    assert (s3.group_seq, b3.expected) == (3, 1)
    assert (s4.group_seq, b4.expected) == (4, 1)
    state.on_receive(Stamp(0, 1))  # 3 and 4 still blocked, now on seq 2
    assert [b.expected for _, b in state.pending_blocking()] == [2, 2]
