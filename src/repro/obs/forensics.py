"""Ordering forensics: journey reconstruction and stall attribution.

The paper's contribution is an *instant* deliver-or-buffer decision made
from sequencing-atom stamps (Sections 3.1/3.3).  The hold-back gauges
say *that* a receiver buffered; this module says *why* — which missing
``(atom, expected_seq)`` pair blocked each message, for how long, and
what delayed the missing predecessor (loss, a link outage, a crashed
peer, failover replay, or nothing at all — it was genuinely in flight).

The journey is the one reconstruction of a message's path: ``repro
explain``, the campaigns, the explorer, the Chrome exporter and ``repro
trace run``'s phase table all read it.

Everything is rebuilt from trace records, so forensics works identically
on a live :class:`~repro.runtime.trace.Trace` and on a JSONL export loaded
from disk.  The flight-recorder kinds consumed here:

===============  ==========================================================
kind             data fields
===============  ==========================================================
``publish``      ``msg``, ``group``, ``sender``
``atom_seq``     ``msg``, ``node``, ``atom``, ``seq`` (overlap number or
                 null), ``group_seq`` (group-local number or null)
``atom_pass``    ``msg``, ``node``, ``atom``, ``atoms`` (a run of ``atoms``
                 pass-through atoms from ``atom``, arrival order; an
                 export without ``atoms`` holds one record per atom)
``distribute``   ``msg``, ``node``, ``members``
``deliver``      ``msg``, ``host``, ``group``, ``sender``, ``publish_time``
``buffer``       ``msg``, ``host``, ``group``, ``blocked_kind``,
                 ``blocked_on``, ``have_seq``, ``expected_seq``
``drain``        ``msg``, ``host``, ``group``, ``unblocked_by``, ``waited``
``retransmit``   ``src``, ``dst``, ``cause``
``link_failure`` ``src``, ``dst``, ``attempts``
``failover``     ``node``, ``old_machine``, ``new_machine``, ``replayed``
``epoch_fence``  ``phase`` ("publish"/"deliver"), ``msg``, ``group``,
                 ``epoch``, ``sender`` (publish) / ``host`` (deliver)
``epoch_switch`` ``phase`` ("begin"/"end"), ``epoch``, ``groups`` (begin)
                 / ``drain_events`` (end)
===============  ==========================================================

The ``atom_seq`` records double as a sequence-space registry: the message
assigned ``(atom, seq)`` *is* the missing predecessor a buffered message
waits for, so blocking pairs join exactly against the stamping history —
no guessing.  See ``docs/OBSERVABILITY.md`` ("Forensics") and the
``repro explain`` CLI subcommand.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.trace import TraceRecord

__all__ = [
    "AtomEvent",
    "BufferEvent",
    "Journey",
    "JourneyIndex",
    "ReceiverLeg",
    "Visit",
    "render_journey",
    "render_phases",
    "render_stalls",
    "stall_verdict",
    "waits_to_dot",
]

#: Attribution vocabulary, most specific first.  ``link_failure`` only
#: applies to never-drained gaps (an abandoned packet explains a message
#: that never arrived); ``epoch_switch`` attributes a stall overlapping
#: an online reconfiguration's fence drain (concrete fault evidence still
#: wins over it); ``in_flight`` is the no-evidence fallback.
CAUSE_EPOCH_SWITCH = "epoch_switch"
CAUSE_PRIORITY = (
    "failover_replay",
    "outage",
    "peer_down",
    "loss",
    CAUSE_EPOCH_SWITCH,
)
CAUSE_IN_FLIGHT = "in_flight"
CAUSE_LINK_FAILURE = "link_failure"


def stall_verdict(evidence: Dict[str, int], drained: bool) -> str:
    """The cause of one hold-back stall, from the fault evidence counted
    inside its window — the one verdict :class:`JourneyIndex` and the live
    monitor's LM303 both give.

    A gap that never drained with an abandoned packet in its window is a
    ``link_failure``: the predecessor will not arrive, so the gap is
    permanent, not a slow retransmission.  Otherwise the first cause of
    :data:`CAUSE_PRIORITY` with evidence wins, and ``in_flight`` when
    there is none.
    """
    if not drained and evidence.get(CAUSE_LINK_FAILURE):
        return CAUSE_LINK_FAILURE
    for cause in CAUSE_PRIORITY:
        if evidence.get(cause):
            return cause
    return CAUSE_IN_FLIGHT


@dataclass(frozen=True)
class AtomEvent:
    """One atom's stamp on one message, or one run of consecutive
    pass-through atoms at one node."""

    time: float
    node: int
    #: the atom, or a run's first atom
    atom: str
    #: ``"seq"`` (assigned at least one number) or ``"pass"``
    action: str
    #: overlap sequence number assigned, if any
    seq: Optional[int] = None
    #: group-local number assigned (ingress stamping), if any
    group_seq: Optional[int] = None
    #: atoms the record stands for: a pass-through run's length, else 1
    atoms: int = 1


@dataclass(frozen=True)
class Visit:
    """One sequencing-node visit, however many co-located atoms ran."""

    node: int
    #: the atom the message entered the node at
    atom: str
    start: float
    #: when the message reached the next node, or was distributed
    end: float


@dataclass
class BufferEvent:
    """One receiver-side buffering, from decision to (maybe) release."""

    msg_id: int
    host: int
    group: int
    #: arrival time at the receiver == buffering time
    time: float
    #: ``"group"`` or ``"atom"`` — which sequence space blocked
    blocked_kind: str
    #: stable key of the blocking space (``"Q(0,1)"`` or ``"group:3"``)
    blocked_on: str
    have_seq: int
    expected_seq: int
    drain_time: Optional[float] = None
    #: the arrival whose processing released this message from the buffer
    unblocked_by: Optional[int] = None
    waited: Optional[float] = None
    #: message that carried the missing ``(blocked_on, expected_seq)``
    #: number — the exact predecessor this receiver was waiting for
    missing_msg: Optional[int] = None
    #: attribution verdict (see :data:`CAUSE_PRIORITY`)
    cause: Optional[str] = None
    #: matched fault records per cause, the evidence behind the verdict
    evidence: Dict[str, int] = field(default_factory=dict)

    @property
    def resolved(self) -> bool:
        """Whether the buffered message was eventually released."""
        return self.drain_time is not None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (deterministic field order)."""
        return {
            "msg": self.msg_id,
            "host": self.host,
            "group": self.group,
            "time": self.time,
            "blocked_kind": self.blocked_kind,
            "blocked_on": self.blocked_on,
            "have_seq": self.have_seq,
            "expected_seq": self.expected_seq,
            "drain_time": self.drain_time,
            "unblocked_by": self.unblocked_by,
            "waited": self.waited,
            "missing_msg": self.missing_msg,
            "cause": self.cause,
            "evidence": {k: self.evidence[k] for k in sorted(self.evidence)},
        }


@dataclass
class ReceiverLeg:
    """One message copy as observed by one receiver."""

    host: int
    #: first arrival at the receiver (buffer time if buffered, else the
    #: delivery instant — direct deliveries have zero hold-back wait)
    arrival_time: float
    deliver_time: Optional[float] = None
    buffer: Optional[BufferEvent] = None


@dataclass
class Journey:
    """The reconstructed end-to-end life of one published message."""

    msg_id: int
    group: int
    sender: int
    publish_time: float
    atom_events: List[AtomEvent] = field(default_factory=list)
    distribute_time: Optional[float] = None
    distribute_node: Optional[int] = None
    #: per-receiver legs, keyed by host id
    legs: Dict[int, ReceiverLeg] = field(default_factory=dict)
    #: True for epoch-fence markers (consumed by the fabric, not the app)
    is_fence: bool = False

    def visits(self) -> List[Visit]:
        """Sequencing-node visits, in path order.

        A visit starts at an atom record whose node differs from the
        message's previous atom record, and ends where the next one starts;
        the last ends at distribution, or at the last atom record when
        nothing was distributed.  Exact, because a node runs a message
        through all its co-located atoms at one instant, and sends it on
        only toward an atom it does not host.
        """
        events = self.atom_events
        starts = [
            event
            for i, event in enumerate(events)
            if i == 0 or event.node != events[i - 1].node
        ]
        if not starts:
            return []
        ends = [event.time for event in starts[1:]]
        ends.append(
            self.distribute_time
            if self.distribute_time is not None
            else events[-1].time
        )
        return [
            Visit(event.node, event.atom, event.time, end)
            for event, end in zip(starts, ends)
        ]

    def phases(self, host: int) -> Optional[Dict[str, float]]:
        """The paper's pipeline phases (Section 3.1) for the copy delivered
        to ``host``, which partition its publish-to-deliver interval:

        * ``ingress`` — publish until the first atom,
        * ``sequencing`` — first atom until distribution fan-out,
        * ``distribution`` — fan-out until delivery, hold-back included.

        Returns ``None`` while the journey is incomplete for ``host``
        (undelivered, or the trace lacks sequencing records).
        """
        leg = self.legs.get(host)
        if (
            leg is None
            or leg.deliver_time is None
            or self.distribute_time is None
            or not self.atom_events
        ):
            return None
        first_atom = self.atom_events[0].time
        return {
            "ingress": first_atom - self.publish_time,
            "sequencing": self.distribute_time - first_atom,
            "distribution": leg.deliver_time - self.distribute_time,
        }

    def breakdown(self, host: int) -> Optional[Dict[str, float]]:
        """Split one copy's end-to-end latency into its three causes.

        * ``sequencing`` — first atom visit until distribution fan-out
          (the sequencing-path detour the protocol adds),
        * ``holdback`` — receiver-side ordering wait in the hold-back
          buffer (zero for messages deliverable on arrival),
        * ``propagation`` — everything else: publisher-to-ingress plus
          fan-out-to-receiver wire time.

        The three sum exactly to ``total``.  ``None`` exactly when
        :meth:`phases` is.
        """
        phases = self.phases(host)
        if phases is None:
            return None
        leg = self.legs[host]
        assert leg.deliver_time is not None  # phases() checked it
        sequencing = phases["sequencing"]
        holdback = leg.deliver_time - leg.arrival_time
        total = leg.deliver_time - self.publish_time
        return {
            "propagation": total - sequencing - holdback,
            "sequencing": sequencing,
            "holdback": holdback,
            "total": total,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able journey summary (deterministic ordering)."""
        return {
            "msg": self.msg_id,
            "group": self.group,
            "sender": self.sender,
            "publish_time": self.publish_time,
            "atom_events": [
                {
                    "time": e.time,
                    "node": e.node,
                    "atom": e.atom,
                    "action": e.action,
                    "seq": e.seq,
                    "group_seq": e.group_seq,
                    "atoms": e.atoms,
                }
                for e in self.atom_events
            ],
            "distribute_time": self.distribute_time,
            "distribute_node": self.distribute_node,
            "receivers": [
                {
                    "host": host,
                    "arrival_time": leg.arrival_time,
                    "deliver_time": leg.deliver_time,
                    "buffered": (
                        leg.buffer.to_dict() if leg.buffer is not None else None
                    ),
                    "breakdown": self.breakdown(host),
                }
                for host, leg in sorted(self.legs.items())
            ],
        }


class JourneyIndex:
    """Rebuild per-message journeys and hold-back forensics from records.

    Accepts any iterable of :class:`~repro.runtime.trace.TraceRecord` —
    a live :class:`~repro.runtime.trace.Trace` or the list returned by
    :func:`repro.obs.exporters.trace_from_jsonl` — and consumes it in
    one pass.  Records must be in emission (chronological) order, which
    both sources guarantee.

    Attribution runs eagerly: every :class:`BufferEvent` leaves the
    constructor with its ``missing_msg``, ``cause``, and ``evidence``
    resolved by joining against the retransmission / link-failure /
    failover records in the same stream.
    """

    def __init__(self, records: Iterable[TraceRecord]):
        self.journeys: Dict[int, Journey] = {}
        self.buffer_events: List[BufferEvent] = []
        #: (time, stream index, src repr, dst repr, cause)
        self.retransmits: List[Tuple[float, int, str, str, str]] = []
        #: (time, src repr, dst repr, attempts)
        self.link_failures: List[Tuple[float, str, str, int]] = []
        #: (time, node id)
        self.failovers: List[Tuple[float, int]] = []
        #: (begin, end, epoch) per online epoch switch (fence drain window)
        self.epoch_switches: List[Tuple[float, float, int]] = []
        self._switch_open: Dict[int, float] = {}
        self.end_time = 0.0
        #: (space key, seq) -> msg_id that was assigned that number
        self._seq_owner: Dict[Tuple[str, int], int] = {}
        #: (host, msg) -> its (unique) buffer event
        self._buffer_by_key: Dict[Tuple[int, int], BufferEvent] = {}
        #: per-host occupancy deltas: (time, stream index, +1/-1)
        self._occupancy: Dict[int, List[Tuple[float, int, int]]] = {}
        for index, record in enumerate(records):
            self._ingest(index, record)
        self._attribute_all()

    # -- ingestion ---------------------------------------------------------

    def _ingest(self, index: int, record: TraceRecord) -> None:
        self.end_time = max(self.end_time, record.time)
        data = record.data
        kind = record.kind
        if kind == "publish":
            self.journeys[data["msg"]] = Journey(
                msg_id=data["msg"],
                group=data["group"],
                sender=data["sender"],
                publish_time=record.time,
            )
        elif kind in ("atom_seq", "atom_pass"):
            self._ingest_atom(record)
        elif kind == "distribute":
            journey = self.journeys.get(data["msg"])
            if journey is not None:
                journey.distribute_time = record.time
                journey.distribute_node = data["node"]
        elif kind == "deliver":
            self._ingest_deliver(record)
        elif kind == "buffer":
            self._ingest_buffer(index, record)
        elif kind == "drain":
            self._ingest_drain(index, record)
        elif kind == "retransmit":
            self.retransmits.append(
                (record.time, index, data["src"], data["dst"], data["cause"])
            )
        elif kind == "link_failure":
            self.link_failures.append(
                (record.time, data["src"], data["dst"], data["attempts"])
            )
        elif kind == "failover":
            self.failovers.append((record.time, data["node"]))
        elif kind == "epoch_fence":
            # Fences travel the normal sequencing path: register a journey
            # on publish (so their atom_seq records feed the sequence-space
            # registry — a gap blocked on a fence's number is explainable)
            # and close the receiver leg on consumption.
            if data["phase"] == "publish":
                self.journeys[data["msg"]] = Journey(
                    msg_id=data["msg"],
                    group=data["group"],
                    sender=data["sender"],
                    publish_time=record.time,
                    is_fence=True,
                )
            else:
                self._ingest_deliver(record)
        elif kind == "epoch_switch":
            if data["phase"] == "begin":
                self._switch_open[data["epoch"]] = record.time
            else:
                begin = self._switch_open.pop(data["epoch"], record.time)
                self.epoch_switches.append((begin, record.time, data["epoch"]))

    def _ingest_atom(self, record: TraceRecord) -> None:
        data = record.data
        journey = self.journeys.get(data["msg"])
        seq = data.get("seq")
        group_seq = data.get("group_seq")
        event = AtomEvent(
            time=record.time,
            node=data["node"],
            atom=data["atom"],
            action="seq" if record.kind == "atom_seq" else "pass",
            seq=seq,
            group_seq=group_seq,
            atoms=data.get("atoms", 1),
        )
        if journey is not None:
            journey.atom_events.append(event)
            if seq is not None:
                self._seq_owner[(data["atom"], seq)] = data["msg"]
            if group_seq is not None:
                self._seq_owner[(f"group:{journey.group}", group_seq)] = data["msg"]

    def _ingest_deliver(self, record: TraceRecord) -> None:
        data = record.data
        journey = self.journeys.get(data["msg"])
        if journey is None:
            return
        leg = journey.legs.get(data["host"])
        if leg is None:
            leg = ReceiverLeg(host=data["host"], arrival_time=record.time)
            journey.legs[data["host"]] = leg
        leg.deliver_time = record.time

    def _ingest_buffer(self, index: int, record: TraceRecord) -> None:
        data = record.data
        event = BufferEvent(
            msg_id=data["msg"],
            host=data["host"],
            group=data["group"],
            time=record.time,
            blocked_kind=data["blocked_kind"],
            blocked_on=data["blocked_on"],
            have_seq=data["have_seq"],
            expected_seq=data["expected_seq"],
        )
        self.buffer_events.append(event)
        self._buffer_by_key[(event.host, event.msg_id)] = event
        self._occupancy.setdefault(event.host, []).append((record.time, index, 1))
        journey = self.journeys.get(event.msg_id)
        if journey is not None:
            journey.legs[event.host] = ReceiverLeg(
                host=event.host, arrival_time=record.time, buffer=event
            )

    def _ingest_drain(self, index: int, record: TraceRecord) -> None:
        data = record.data
        event = self._buffer_by_key.get((data["host"], data["msg"]))
        if event is None:
            return
        event.drain_time = record.time
        event.unblocked_by = data.get("unblocked_by")
        event.waited = data.get("waited")
        if event.waited is None:
            event.waited = record.time - event.time
        self._occupancy.setdefault(data["host"], []).append((record.time, index, -1))

    # -- attribution -------------------------------------------------------

    def _attribute_all(self) -> None:
        # A switch still open when the trace ends (the run stopped mid-
        # drain) fences everything until the end of the recording.
        for epoch in sorted(self._switch_open):
            self.epoch_switches.append(
                (self._switch_open[epoch], self.end_time, epoch)
            )
        self._switch_open.clear()
        self.epoch_switches.sort()
        for event in self.buffer_events:
            self._attribute(event)

    def _match_names(self, event: BufferEvent) -> Optional[List[str]]:
        """Process names whose link trouble can explain ``event``'s gap.

        When the missing predecessor is known, its reconstructed path —
        publisher host, every sequencing node it visited, and the stalled
        receiver — bounds the join.  When it is unknown (the predecessor
        never reached a stamping atom, so it was still upstream), return
        ``None``: any link's trouble is admissible evidence.
        """
        if event.missing_msg is None:
            return None
        journey = self.journeys.get(event.missing_msg)
        if journey is None:
            return None
        names = [repr(("host", journey.sender)), repr(("host", event.host))]
        for visit in journey.visits():
            names.append(repr(("seq", visit.node)))
        if journey.distribute_node is not None:
            names.append(repr(("seq", journey.distribute_node)))
        return names

    def _attribute(self, event: BufferEvent) -> None:
        event.missing_msg = self._seq_owner.get(
            (event.blocked_on, event.expected_seq)
        )
        window_start = event.time
        if event.missing_msg is not None:
            journey = self.journeys.get(event.missing_msg)
            if journey is not None:
                window_start = min(window_start, journey.publish_time)
        window_end = (
            event.drain_time if event.drain_time is not None else self.end_time
        )
        match = self._match_names(event)
        evidence: Dict[str, int] = {}
        for time, _index, src, dst, cause in self.retransmits:
            if time < window_start or time > window_end:
                continue
            if match is not None and src not in match and dst not in match:
                continue
            evidence[cause] = evidence.get(cause, 0) + 1
        for time, node in self.failovers:
            if window_start <= time <= window_end:
                name = repr(("seq", node))
                if match is None or name in match:
                    evidence["failover_replay"] = (
                        evidence.get("failover_replay", 0) + 1
                    )
        for time, src, dst, _attempts in self.link_failures:
            if time < window_start or time > window_end:
                continue
            if match is not None and src not in match and dst not in match:
                continue
            evidence[CAUSE_LINK_FAILURE] = evidence.get(CAUSE_LINK_FAILURE, 0) + 1
        for begin, end, _epoch in self.epoch_switches:
            # A stall overlapping a fence-drain window is (absent stronger
            # fault evidence) the reconfiguration itself: the fence holds
            # the space closed until every member catches up.
            if begin <= window_end and end >= window_start:
                evidence[CAUSE_EPOCH_SWITCH] = (
                    evidence.get(CAUSE_EPOCH_SWITCH, 0) + 1
                )
        event.evidence = evidence
        event.cause = stall_verdict(evidence, drained=event.resolved)

    # -- queries -----------------------------------------------------------

    def journey(self, msg_id: int) -> Optional[Journey]:
        """The reconstructed journey of one message, if it was published."""
        return self.journeys.get(msg_id)

    def stalls(self, threshold: float = 0.0) -> List[BufferEvent]:
        """Buffer events whose hold-back wait met ``threshold`` ms.

        Never-drained events always qualify — an unresolved gap is the
        worst stall there is.  Sorted by (buffer time, host, msg).
        """
        out = [
            event
            for event in self.buffer_events
            if not event.resolved
            or (event.waited is not None and event.waited >= threshold)
        ]
        out.sort(key=lambda e: (e.time, e.host, e.msg_id))
        return out

    def holdback_history(self, host: int) -> List[Tuple[float, int]]:
        """Hold-back occupancy steps ``(time, depth)`` for one receiver.

        Rebuilt from buffer/drain records, so it matches the live
        ``on_occupancy`` gauge stream for the same run.
        """
        deltas = sorted(self._occupancy.get(host, []), key=lambda d: (d[0], d[1]))
        history: List[Tuple[float, int]] = []
        depth = 0
        for time, _index, delta in deltas:
            depth += delta
            history.append((time, depth))
        return history

    def waits_edges(self) -> List[Dict[str, Any]]:
        """Who-waited-on-whom: one edge per buffer event.

        ``waiter`` waited for ``on`` (the exact missing predecessor when
        reconstructable, else the arrival that released it) at
        ``host``, blocked on ``blocked_on``/``expected_seq``.
        """
        edges: List[Dict[str, Any]] = []
        for event in sorted(
            self.buffer_events, key=lambda e: (e.time, e.host, e.msg_id)
        ):
            on = event.missing_msg
            if on is None:
                on = event.unblocked_by
            edges.append(
                {
                    "waiter": event.msg_id,
                    "on": on,
                    "host": event.host,
                    "blocked_on": event.blocked_on,
                    "expected_seq": event.expected_seq,
                    "waited": event.waited,
                    "cause": event.cause,
                }
            )
        return edges

    def waits_to_json(self) -> Dict[str, Any]:
        """JSON document of the causal wait graph (nodes + edges)."""
        edges = self.waits_edges()
        nodes = sorted(
            {e["waiter"] for e in edges}
            | {e["on"] for e in edges if e["on"] is not None}
        )
        return {"messages": nodes, "waits": edges}

    def stall_report(self, threshold: float = 0.0) -> Dict[str, Any]:
        """JSON-able stall summary for one run (deterministic ordering)."""
        stalls = self.stalls(threshold)
        by_cause: Dict[str, int] = {}
        for event in self.buffer_events:
            assert event.cause is not None  # attribution ran in __init__
            by_cause[event.cause] = by_cause.get(event.cause, 0) + 1
        return {
            "threshold_ms": threshold,
            "messages": sum(1 for j in self.journeys.values() if not j.is_fence),
            "fences": sum(1 for j in self.journeys.values() if j.is_fence),
            "buffer_events": len(self.buffer_events),
            "unresolved": sum(1 for e in self.buffer_events if not e.resolved),
            "by_cause": {k: by_cause[k] for k in sorted(by_cause)},
            "stalls": [event.to_dict() for event in stalls],
        }


# -- rendering --------------------------------------------------------------


def render_journey(journey: Journey) -> str:
    """Text timeline of one message's end-to-end journey."""
    lines = [
        f"message {journey.msg_id}: group {journey.group}, "
        f"sender host {journey.sender}, published t={journey.publish_time:.3f}"
    ]
    for event in journey.atom_events:
        if event.action == "pass":
            what = "pass-through"
            if event.atoms > 1:
                what += f" ×{event.atoms} from {event.atom}"
        else:
            parts = []
            if event.group_seq is not None:
                parts.append(f"group_seq={event.group_seq}")
            if event.seq is not None:
                parts.append(f"seq={event.seq}")
            what = "stamped " + ", ".join(parts)
        lines.append(
            f"  t={event.time:.3f}  node {event.node}  {event.atom}  {what}"
        )
    if journey.distribute_time is not None:
        lines.append(
            f"  t={journey.distribute_time:.3f}  distribute from node "
            f"{journey.distribute_node} to {len(journey.legs)} receiver(s)"
        )
    for host, leg in sorted(journey.legs.items()):
        if leg.buffer is None:
            delivered = (
                f"delivered t={leg.deliver_time:.3f}"
                if leg.deliver_time is not None
                else "never delivered"
            )
            lines.append(f"  host {host}: arrived and {delivered} (no hold-back)")
            continue
        event = leg.buffer
        head = (
            f"  host {host}: arrived t={event.time:.3f}, buffered on "
            f"{event.blocked_on} expecting seq {event.expected_seq} "
            f"(carries {event.have_seq})"
        )
        if event.resolved:
            assert event.drain_time is not None and event.waited is not None
            head += (
                f"; drained t={event.drain_time:.3f} by message "
                f"{event.unblocked_by} after {event.waited:.3f} ms "
                f"[{event.cause}]"
            )
        else:
            head += f"; NEVER drained [{event.cause}]"
        lines.append(head)
        if event.missing_msg is not None:
            lines.append(
                f"           missing predecessor: message {event.missing_msg}"
            )
    for host in sorted(journey.legs):
        breakdown = journey.breakdown(host)
        if breakdown is None:
            continue
        lines.append(
            f"  host {host} latency: total {breakdown['total']:.3f} = "
            f"propagation {breakdown['propagation']:.3f} + "
            f"sequencing {breakdown['sequencing']:.3f} + "
            f"holdback {breakdown['holdback']:.3f}"
        )
    return "\n".join(lines)


def render_phases(index: JourneyIndex) -> str:
    """Aligned table of the mean :meth:`Journey.phases` per group, over
    every delivered copy whose journey is complete (fences excluded)."""
    names = ("ingress", "sequencing", "distribution")
    sums: Dict[int, Dict[str, float]] = {}
    counts: Dict[int, int] = {}
    for journey in index.journeys.values():
        if journey.is_fence:
            continue
        for host in journey.legs:
            phases = journey.phases(host)
            if phases is None:
                continue
            bucket = sums.setdefault(journey.group, dict.fromkeys(names, 0.0))
            for name in names:
                bucket[name] += phases[name]
            counts[journey.group] = counts.get(journey.group, 0) + 1
    headers = ["group"] + [f"{name}_ms" for name in names] + ["total_ms"]
    widths = [max(10, len(h)) for h in headers]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for group in sorted(sums):
        means = [sums[group][name] / counts[group] for name in names]
        cells = [str(group)] + [f"{mean:.3f}" for mean in means]
        cells.append(f"{sum(means):.3f}")
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def render_stalls(report: Dict[str, Any]) -> str:
    """Text rendering of :meth:`JourneyIndex.stall_report`."""
    lines = [
        f"{report['messages']} message(s), {report['buffer_events']} buffer "
        f"event(s), {report['unresolved']} unresolved, threshold "
        f"{report['threshold_ms']:.1f} ms"
    ]
    if report["by_cause"]:
        causes = ", ".join(
            f"{cause}={count}" for cause, count in report["by_cause"].items()
        )
        lines.append(f"buffer events by cause: {causes}")
    for stall in report["stalls"]:
        waited = (
            f"waited {stall['waited']:.3f} ms"
            if stall["waited"] is not None
            else "never drained"
        )
        missing = (
            f" (missing message {stall['missing_msg']})"
            if stall["missing_msg"] is not None
            else ""
        )
        lines.append(
            f"  t={stall['time']:.3f} host {stall['host']} message "
            f"{stall['msg']} blocked on {stall['blocked_on']} seq "
            f"{stall['expected_seq']}{missing}: {waited} [{stall['cause']}]"
        )
    if not report["stalls"]:
        lines.append("  no stalls at this threshold")
    return "\n".join(lines)


def waits_to_dot(index: JourneyIndex) -> str:
    """Graphviz digraph of the who-waited-on-whom dependency graph.

    One node per message involved in a wait; one edge per buffer event,
    labelled with the receiver, the blocking pair, and the wait.
    """
    doc = index.waits_to_json()
    lines = ["digraph waits {", "  rankdir=LR;", "  node [shape=box];"]
    for msg in doc["messages"]:
        lines.append(f'  m{msg} [label="m{msg}"];')
    for edge in doc["waits"]:
        if edge["on"] is None:
            continue
        waited = (
            f"{edge['waited']:.2f}ms" if edge["waited"] is not None else "stuck"
        )
        label = (
            f"h{edge['host']}: {edge['blocked_on']}#{edge['expected_seq']} "
            f"{waited} [{edge['cause']}]"
        )
        lines.append(f'  m{edge["waiter"]} -> m{edge["on"]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
