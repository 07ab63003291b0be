"""Differential tests of the indexed hold-back against the rescanning one.

``RescanDeliveryState`` is the receiver this repository shipped until the
hold-back buffer was indexed by the gap a message waits for: it filters
every stamp through the relevant-atom dict on each call and, after every
release, rescans its buffer from the head.  It is kept here, verbatim in
behaviour, as the oracle: on any stamp stream the two must deliver the
same messages in the same order, make the same observer calls, and report
the same pending messages and gaps.
"""

import random
from typing import Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.delivery import Blocking, DeliveryState
from repro.core.messages import AtomId, Stamp


class RescanDeliveryState:
    """The pre-index receiver: per-call stamp filter, rescanning drain."""

    def __init__(self, host_id, groups, relevant_atoms):
        self.host_id = host_id
        self._expected_group: Dict[int, int] = {g: 1 for g in groups}
        self._expected_atom: Dict[AtomId, int] = {a: 1 for a in relevant_atoms}
        self._buffer: List[Tuple[Stamp, object]] = []
        self.delivered_count = 0
        self.buffered_high_water = 0
        self.on_occupancy = None
        self.on_buffer = None
        self.on_drain = None
        #: ``deliverable`` evaluations, for the count guard below
        self.evaluations = 0

    def _relevant_entries(self, stamp):
        return [
            (atom_id, seq)
            for atom_id, seq in stamp.atom_seqs
            if atom_id in self._expected_atom
        ]

    def deliverable(self, stamp):
        self.evaluations += 1
        if stamp.group not in self._expected_group:
            raise KeyError(stamp.group)
        if stamp.group_seq != self._expected_group[stamp.group]:
            return False
        return all(
            seq == self._expected_atom[atom_id]
            for atom_id, seq in self._relevant_entries(stamp)
        )

    def blocking_of(self, stamp) -> Optional[Blocking]:
        if stamp.group not in self._expected_group:
            raise KeyError(stamp.group)
        expected = self._expected_group[stamp.group]
        if stamp.group_seq != expected:
            return Blocking(
                "group", f"group:{stamp.group}", stamp.group_seq, expected
            )
        for atom_id, seq in self._relevant_entries(stamp):
            expected = self._expected_atom[atom_id]
            if seq != expected:
                return Blocking("atom", repr(atom_id), seq, expected)
        return None

    def _consume(self, stamp):
        self._expected_group[stamp.group] += 1
        for atom_id, _ in self._relevant_entries(stamp):
            self._expected_atom[atom_id] += 1
        self.delivered_count += 1

    def on_receive(self, stamp, payload=None):
        delivered = []
        depth_before = len(self._buffer)
        if self.deliverable(stamp):
            self._consume(stamp)
            delivered.append((stamp, payload))
            delivered.extend(self._drain_buffer(stamp, payload))
        else:
            if self.on_buffer is not None:
                self.on_buffer(stamp, payload, self.blocking_of(stamp))
            self._buffer.append((stamp, payload))
            self.buffered_high_water = max(
                self.buffered_high_water, len(self._buffer)
            )
        if self.on_occupancy is not None and len(self._buffer) != depth_before:
            self.on_occupancy(len(self._buffer))
        return delivered

    def _drain_buffer(self, by_stamp, by_payload):
        delivered = []
        progress = True
        while progress:
            progress = False
            for index, (stamp, payload) in enumerate(self._buffer):
                if self.deliverable(stamp):
                    self._consume(stamp)
                    if self.on_drain is not None:
                        self.on_drain(stamp, payload, by_stamp, by_payload)
                    delivered.append((stamp, payload))
                    del self._buffer[index]
                    progress = True
                    break
        return delivered

    @property
    def pending(self):
        return len(self._buffer)

    def pending_stamps(self):
        return [stamp for stamp, _ in self._buffer]

    def pending_blocking(self):
        return [(stamp, self.blocking_of(stamp)) for stamp, _ in self._buffer]


# ---------------------------------------------------------------------------
# The receiver under test subscribes to groups 0, 1 and 2.  Groups 0 and 1
# share no atom; group 2 overlaps both (Q(0,2), Q(1,2)), so one group-2
# arrival can make a buffered group-0 message and a buffered group-1
# message deliverable at the same moment.  Q(0,4) and Q(1,5) ride along on
# stamps without being relevant to this receiver.
# ---------------------------------------------------------------------------

Q02, Q12, Q04, Q15 = (
    AtomId.overlap(0, 2),
    AtomId.overlap(1, 2),
    AtomId.overlap(0, 4),
    AtomId.overlap(1, 5),
)
GROUPS = (0, 1, 2)
RELEVANT = (Q02, Q12)
#: stamp order of each group's atoms (what one sequencing graph produces)
PATHS = {0: (Q04, Q02), 1: (Q12, Q15), 2: (Q02, Q12)}
#: a second order per group, as after a graph change: same receiver state,
#: different stamp layout
OTHER_PATHS = {0: (Q02, Q04), 1: (Q15, Q12), 2: (Q12, Q02)}


def sequenced_stream(choices: List[int], paths=PATHS) -> List[Stamp]:
    """Stamps a sequencing network would issue for ``choices`` (groups)."""
    group_seq = {g: 0 for g in GROUPS}
    atom_seq: Dict[AtomId, int] = {}
    stamps = []
    for group in choices:
        group_seq[group] += 1
        entries = []
        for atom in paths[group]:
            atom_seq[atom] = atom_seq.get(atom, 0) + 1
            entries.append((atom, atom_seq[atom]))
        stamps.append(Stamp(group, group_seq[group], tuple(entries)))
    return stamps


small = st.integers(min_value=1, max_value=5)
arbitrary_stamp = st.builds(
    lambda group, seq, other, seqs: Stamp(
        group,
        seq,
        tuple(zip((OTHER_PATHS if other else PATHS)[group], seqs)),
    ),
    st.sampled_from(GROUPS),
    small,
    st.booleans(),
    st.tuples(small, small),
)


@st.composite
def stamp_streams(draw) -> List[Stamp]:
    """A shuffled well-formed stream with duplicates and junk mixed in."""
    choices = draw(st.lists(st.sampled_from(GROUPS), min_size=1, max_size=24))
    stream = sequenced_stream(choices)
    # Duplicates of real stamps and arbitrary (mostly never-deliverable,
    # sometimes differently laid out) stamps.
    extras = draw(
        st.lists(
            st.one_of(st.sampled_from(stream), arbitrary_stamp), max_size=8
        )
    )
    return draw(st.permutations(stream + extras))


class Log:
    """Observer calls of one receiver, in order."""

    def __init__(self, state):
        self.calls: List[tuple] = []
        state.on_buffer = lambda *args: self.calls.append(("buffer",) + args)
        state.on_drain = lambda *args: self.calls.append(("drain",) + args)
        state.on_occupancy = lambda depth: self.calls.append(("occupancy", depth))


def feed_both(stream: List[Stamp]) -> Tuple[DeliveryState, RescanDeliveryState]:
    indexed = DeliveryState(7, GROUPS, RELEVANT)
    oracle = RescanDeliveryState(7, GROUPS, RELEVANT)
    indexed_log, oracle_log = Log(indexed), Log(oracle)
    for arrival, stamp in enumerate(stream):
        # The payload is the arrival index: equal stamps stay apart.
        assert indexed.on_receive(stamp, arrival) == oracle.on_receive(stamp, arrival)
        assert indexed_log.calls == oracle_log.calls
        assert indexed.pending_stamps() == oracle.pending_stamps()
        assert indexed.pending_blocking() == oracle.pending_blocking()
        assert indexed.pending == oracle.pending
        assert indexed.buffered_high_water == oracle.buffered_high_water
        assert indexed.delivered_count == oracle.delivered_count
    for group in GROUPS:
        assert indexed.expected_group_seq(group) == oracle._expected_group[group]
    return indexed, oracle


@given(stamp_streams())
@settings(
    max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_indexed_holdback_matches_rescan(stream):
    feed_both(stream)


@given(st.lists(arbitrary_stamp, max_size=30))
@settings(
    max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_matches_rescan_on_arbitrary_stamps(stream):
    """No well-formed backbone at all: duplicates, stale numbers, stamps
    whose atoms sit elsewhere than in the last stamp of their group."""
    feed_both(stream)


def test_simultaneously_deliverable_entries_leave_in_arrival_order():
    """One group-2 arrival unblocks a group-1 and a group-0 message that
    share no sequence space: the earlier *arrival* leaves first, as a scan
    of the buffer from its head found them."""
    first_of_2 = Stamp(2, 1, ((Q02, 1), (Q12, 1)))
    in_1 = Stamp(1, 1, ((Q12, 2), (Q15, 1)))
    in_0 = Stamp(0, 1, ((Q04, 1), (Q02, 2)))
    for buffered in ([in_1, in_0], [in_0, in_1]):
        stream = buffered + [first_of_2]
        indexed, oracle = feed_both(stream)
        assert indexed.pending == 0
        state = DeliveryState(7, GROUPS, RELEVANT)
        released = [
            [payload for _, payload in state.on_receive(stamp, arrival)]
            for arrival, stamp in enumerate(stream)
        ]
        assert released == [[], [], [2, 0, 1]]


def test_nonconforming_stamp_gets_its_own_layout():
    """A stamp whose atoms differ from the group's last one is read by
    its own positions, never by the cached ones."""
    state = DeliveryState(0, [0], [Q02])
    assert state.on_receive(Stamp(0, 1, ((Q04, 9), (Q02, 1))), "a")
    # Same group, relevant atom now first: position 1 holds Q(0,4).
    assert state.on_receive(Stamp(0, 2, ((Q02, 2), (Q04, 1))), "b")
    # And back, equal to the first layout by value but built afresh.
    again = AtomId("overlap", (0, 2))
    assert again is not Q02
    assert state.on_receive(Stamp(0, 3, ((Q04, 7), (again, 3))), "c")
    assert state.blocking_of(Stamp(0, 4, ((Q02, 9),))) == Blocking(
        "atom", "Q(0,2)", 9, 4
    )


def test_layout_atoms_are_shared_between_receivers():
    """Receivers taught by the same stamp hold one atom tuple, not one each."""
    stamp = Stamp(0, 1, ((Q04, 1), (Q02, 1)))
    a = DeliveryState(0, [0], [Q02])
    b = DeliveryState(1, [0], [])
    a.on_receive(stamp)
    b.on_receive(stamp)
    assert a._layouts[0][1] is b._layouts[0][1] is stamp.atoms


def test_drained_buffer_keeps_no_index():
    state = DeliveryState(0, [0], [])
    state.on_receive(Stamp(0, 2))
    assert state._waiters
    state.on_receive(Stamp(0, 1))
    assert state.pending == 0 and state._waiters is None


def test_deep_burst_costs_gap_checks_per_delivery_not_per_depth():
    """300 messages of three overlapping groups, shuffled: every buffered
    message is asked about its gap once per gap it has (at most one per
    gated stamp entry plus the group counter), not once per release."""
    rng = random.Random(5)
    stream = sequenced_stream([rng.choice(GROUPS) for _ in range(300)])
    rng.shuffle(stream)

    state = DeliveryState(0, GROUPS, RELEVANT)
    evaluations = 0
    original = state._open_gap

    def counting(stamp, layout):
        nonlocal evaluations
        evaluations += 1
        return original(stamp, layout)

    state._open_gap = counting
    oracle = RescanDeliveryState(0, GROUPS, RELEVANT)
    delivered = []
    for stamp in stream:
        released = state.on_receive(stamp)
        assert released == oracle.on_receive(stamp)
        delivered.extend(released)
    assert len(delivered) == 300 and state.pending == 0
    assert state.buffered_high_water == oracle.buffered_high_water > 100
    # One check on arrival and one per wake-up; a stamp gates at most
    # three spaces here (group counter, Q(0,2), Q(1,2)).
    assert evaluations <= 300 * (1 + 3)
    # The rescan this replaced: tens of evaluations per delivery.
    assert oracle.evaluations > 10 * evaluations
