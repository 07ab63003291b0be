"""Receiver-side deliver-or-buffer decision (paper Sections 3.1, 3.3).

"Any destination node can make an instant and deterministic decision of
whether to deliver an arriving message to the application or to buffer it."

A receiver tracks one expected counter per subscribed group (group-local
sequence space — gap-free, since every member receives every group message)
and one per *relevant* atom, i.e. every atom whose overlap contains the
receiver (it subscribes to both overlapped groups, so it observes the
atom's entire sequence space gap-free).  A message is deliverable exactly
when its group-local number and every relevant atom number on its stamp
match the expected counters.  Theorem 1 guarantees this never deadlocks
and that all members of a group deliver in the same order.

Deliverability doubles as the paper's commit signal: a deliverable message
is known to have no delayed predecessors.

Beyond the yes/no decision, the state can *explain* it:
:meth:`DeliveryState.blocking_of` names the exact sequence-space gap —
``(atom_id, expected_seq)`` or the group-local counter — that forces a
buffer, and the ``on_buffer``/``on_drain`` observers surface every
buffering and every buffer release (with the arrival that triggered it)
to the forensics layer (:mod:`repro.obs.forensics`).

What the decision costs.  Every sequence space the receiver observes
gap-free owns a *slot* in one flat list of expected numbers.  Stamps of a
group carry the same atoms in the same order for as long as the
sequencing graph stands, so which stamp positions gate delivery here is
worked out once per group (the group's *layout*) and every later stamp is
checked against it with one tuple comparison: a stamp that does not
conform gets a layout of its own, never a stale one.  Buffered messages
are indexed by the gap they wait for, so a delivery wakes only the
messages it may have unblocked instead of rescanning the buffer.
"""

import heapq
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.messages import AtomId, Stamp

#: ``(slot of the group-local counter, numbers of the atoms of the group's
#: stamps in stamp order, (position, slot, position, slot, ...) of the
#: relevant ones)``; the atoms are ``None`` until the group's first stamp
_Layout = Tuple[int, Optional[Tuple[int, ...]], Tuple[int, ...]]
#: ``(slot, number the stamp carries there, its stamp position)``; the
#: position is -1 for the group-local number
_Gap = Tuple[int, int, int]


class Blocking(NamedTuple):
    """The first unmet constraint forcing a message into the buffer.

    Attributes
    ----------
    kind:
        ``"group"`` when the group-local sequence number is ahead of the
        receiver's counter, ``"atom"`` when a relevant atom's number is.
    key:
        Stable string key of the blocked sequence space: ``"group:<g>"``
        or the atom's ``repr`` (e.g. ``"Q(0,1)"``).
    have:
        The sequence number the buffered message carries in that space.
    expected:
        The number the receiver is still waiting for — the missing
        predecessor's number, i.e. the gap itself.
    """

    kind: str
    key: str
    have: int
    expected: int


class DeliveryState:
    """Per-receiver ordering state.

    Parameters
    ----------
    host_id:
        The receiver (for diagnostics).
    groups:
        Groups the receiver subscribes to.
    relevant_atoms:
        Atoms whose overlap contains the receiver; their sequence numbers
        gate delivery.  Stamp entries from other atoms are ignored ("the
        rest need only use the group-local sequence number").
    """

    def __init__(
        self,
        host_id: int,
        groups: Iterable[int],
        relevant_atoms: Iterable[AtomId],
    ):
        self.host_id = host_id
        subscribed = list(dict.fromkeys(groups))
        relevant = list(dict.fromkeys(atom_id.number for atom_id in relevant_atoms))
        #: next number accepted in each sequence space (slot), groups first
        self._expected: List[int] = [1] * (len(subscribed) + len(relevant))
        self._layouts: Dict[int, _Layout] = {
            group: (slot, None, ()) for slot, group in enumerate(subscribed)
        }
        #: atom number -> its slot
        self._atom_slot: Dict[int, int] = {
            number: slot for slot, number in enumerate(relevant, len(subscribed))
        }
        #: arrival index -> buffered (stamp, payload); insertion order is
        #: arrival order and survives releases from the middle
        self._held: Dict[int, Tuple[Stamp, object]] = {}
        self._arrivals = 0
        #: (slot, number) -> arrival indices of the buffered messages whose
        #: first open gap is that number in that space; exists only while
        #: something is buffered
        self._waiters: Optional[Dict[Tuple[int, int], List[int]]] = None
        self.delivered_count = 0
        self.buffered_high_water = 0
        #: optional observer called with the new buffer depth after every
        #: size change — lets :mod:`repro.obs` keep live occupancy gauges
        #: without polling (None = no overhead beyond one attribute check)
        self.on_occupancy: Optional[Callable[[int], None]] = None
        #: optional observer called when an arrival is buffered, with the
        #: arrival's stamp, its payload, and the :class:`Blocking` gap
        self.on_buffer: Optional[Callable[[Stamp, object, Blocking], None]] = None
        #: optional observer called for every message *released from the
        #: buffer* (not the immediately-delivered arrival), with the
        #: released stamp/payload and the stamp/payload of the arrival
        #: whose processing triggered the drain cascade
        self.on_drain: Optional[
            Callable[[Stamp, object, Stamp, object], None]
        ] = None

    def resume_from(
        self,
        group_next: Dict[int, int],
        atom_next: Dict[AtomId, int],
    ) -> None:
        """Align expected counters with continuing sequence spaces.

        Used by :mod:`repro.core.reconfigure` when a fabric is rebuilt
        after a membership change: surviving groups and atoms keep their
        sequence spaces, so receivers — including ones that just joined —
        must expect the *next* number in each space rather than 1.
        Unknown keys are ignored (the receiver is not subscribed/relevant).
        """
        if self._held:
            raise ValueError(
                f"host {self.host_id} has buffered messages; resume only "
                "from a quiescent state"
            )
        for group, expected in group_next.items():
            if group in self._layouts:
                self._expected[self._layouts[group][0]] = expected
        for atom_id, expected in atom_next.items():
            slot = self._atom_slot.get(atom_id.number)
            if slot is not None:
                self._expected[slot] = expected

    # ------------------------------------------------------------------

    def _layout(self, stamp: Stamp) -> _Layout:
        """The layout ``stamp`` conforms to, worked out now if it is new."""
        group = stamp.group
        try:
            layout = self._layouts[group]
        except KeyError:
            raise KeyError(
                f"host {self.host_id} received message for unsubscribed "
                f"group {group}"
            ) from None
        # A stamp that teaches a layout lends it its ``atoms``; as every
        # member of the group meets that stamp first, they all hold the
        # one tuple.
        atoms = stamp.atoms
        if atoms != layout[1]:
            atom_slot = self._atom_slot
            relevant: List[int] = []
            for position, number in enumerate(atoms):
                slot = atom_slot.get(number)
                if slot is not None:
                    relevant += (position, slot)
            layout = self._layouts[group] = (layout[0], atoms, tuple(relevant))
        return layout

    def _open_gap(self, stamp: Stamp, layout: _Layout) -> Optional[_Gap]:
        """The first space in which ``stamp`` is not the next message.

        Spaces are tried in decision order: the group-local counter, then
        the relevant atoms in stamp (path) order.
        """
        expected = self._expected
        slot = layout[0]
        have = stamp.group_seq
        if have != expected[slot]:
            return slot, have, -1
        relevant = layout[2]
        if relevant:
            seqs = stamp.seqs
            for i in range(0, len(relevant), 2):
                position = relevant[i]
                slot = relevant[i + 1]
                have = seqs[position]
                if have != expected[slot]:
                    return slot, have, position
        return None

    def _describe(self, stamp: Stamp, gap: _Gap) -> Blocking:
        slot, have, position = gap
        if position < 0:
            return Blocking(
                "group", f"group:{stamp.group}", have, self._expected[slot]
            )
        return Blocking(
            "atom", AtomId.by_number(stamp.atoms[position]).label, have, self._expected[slot]
        )

    def deliverable(self, stamp: Stamp) -> bool:
        """The instant deliver-or-buffer decision for one stamp."""
        return self._open_gap(stamp, self._layout(stamp)) is None

    def blocking_of(self, stamp: Stamp) -> Optional[Blocking]:
        """Name the first gap blocking ``stamp``; ``None`` if deliverable.

        Constraints are checked in the same order as :meth:`deliverable`
        (group-local counter first, then relevant atoms in stamp/path
        order), so the returned gap is the one the decision tripped on.
        Several constraints may be unmet at once; re-query after each
        arrival to watch the blocking front move.
        """
        gap = self._open_gap(stamp, self._layout(stamp))
        return None if gap is None else self._describe(stamp, gap)

    def _consume(self, layout: _Layout) -> None:
        """Advance every counter a delivered stamp held."""
        expected = self._expected
        relevant = layout[2]
        expected[layout[0]] += 1
        for i in range(1, len(relevant), 2):
            expected[relevant[i]] += 1
        self.delivered_count += 1

    def _wake(self, layout: _Layout, woken: List[int]) -> None:
        """Move the waiters of the counters just advanced onto ``woken``."""
        waiters = self._waiters
        assert waiters is not None  # only called while something waits
        expected = self._expected
        for slot in (layout[0],) + layout[2][1::2]:
            for index in waiters.pop((slot, expected[slot]), ()):
                heapq.heappush(woken, index)

    def _wait(self, index: int, gap: _Gap) -> None:
        """File a buffered message under the gap it is waiting for."""
        if self._waiters is None:
            self._waiters = {}
        self._waiters.setdefault((gap[0], gap[1]), []).append(index)

    def on_receive(self, stamp: Stamp, payload: object = None) -> List[Tuple[Stamp, object]]:
        """Accept an arriving message; return everything now deliverable.

        The returned list is in delivery order and may include previously
        buffered messages unblocked by this arrival.  An arrival that is
        not yet deliverable is buffered and the list is empty.
        """
        delivered: List[Tuple[Stamp, object]] = []
        depth_before = len(self._held)
        layout = self._layout(stamp)
        gap = self._open_gap(stamp, layout)
        if gap is None:
            self._consume(layout)
            delivered.append((stamp, payload))
            if self._waiters:
                self._release_waiters(layout, stamp, payload, delivered)
        else:
            if self.on_buffer is not None:
                self.on_buffer(stamp, payload, self._describe(stamp, gap))
            index = self._arrivals
            self._arrivals = index + 1
            self._held[index] = (stamp, payload)
            self._wait(index, gap)
            if len(self._held) > self.buffered_high_water:
                self.buffered_high_water = len(self._held)
        depth = len(self._held)
        if self.on_occupancy is not None and depth != depth_before:
            self.on_occupancy(depth)
        return delivered

    def _release_waiters(
        self,
        layout: _Layout,
        by_stamp: Stamp,
        by_payload: object,
        delivered: List[Tuple[Stamp, object]],
    ) -> None:
        """Deliver every buffered message the arrival unblocked.

        ``woken`` is a min-heap of arrival indices.  Two woken messages can
        be deliverable at once (a receiver in two groups that share no
        atom); the earliest arrival goes first, which is the order a scan
        of the buffer from its head would find them in.  A woken message
        is deliverable only if no later gap of it is still open and no
        duplicate of it got there first, so it is asked again.
        """
        held = self._held
        woken: List[int] = []
        self._wake(layout, woken)
        while woken:
            index = heapq.heappop(woken)
            stamp, payload = held[index]
            layout = self._layout(stamp)
            gap = self._open_gap(stamp, layout)
            if gap is not None:
                self._wait(index, gap)
                continue
            self._consume(layout)
            self._wake(layout, woken)
            if self.on_drain is not None:
                self.on_drain(stamp, payload, by_stamp, by_payload)
            delivered.append((stamp, payload))
            del held[index]
        if not held:
            # Drained: an emptied dict keeps the table it grew.
            self._held = {}
            self._waiters = None

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Messages currently buffered awaiting predecessors."""
        return len(self._held)

    def pending_stamps(self) -> List[Stamp]:
        """Stamps of buffered messages, in arrival order (diagnostics)."""
        return [stamp for stamp, _ in self._held.values()]

    def pending_blocking(self) -> List[Tuple[Stamp, Blocking]]:
        """Each buffered stamp with the gap *currently* blocking it.

        Unlike the gap reported to ``on_buffer`` at buffering time, this
        reflects counters as of now — earlier arrivals may have satisfied
        the original constraint while a later one still blocks.  Used by
        end-of-run forensics to explain messages that never drained.
        """
        out: List[Tuple[Stamp, Blocking]] = []
        for stamp, _ in self._held.values():
            blocking = self.blocking_of(stamp)
            assert blocking is not None  # buffered, so a gap exists
            out.append((stamp, blocking))
        return out

    def expected_group_seq(self, group: int) -> int:
        """Next group-local number this receiver will accept for ``group``."""
        return self._expected[self._layouts[group][0]]

    def __repr__(self) -> str:
        return (
            f"<DeliveryState host={self.host_id} delivered={self.delivered_count} "
            f"pending={self.pending}>"
        )
