"""Bounded-memory streaming monitors over the runtime trace stream.

Where :func:`repro.check.verify_run` re-proves the RT300-class invariants
*after* a run, :class:`LiveMonitor` subscribes to the fabric's
:class:`~repro.runtime.trace.Trace` and checks them **incrementally**,
record by record, with windowed state that is evicted as soon as delivery
confirmation makes it dead:

=====  ========  ==========================================================
rule   severity  fires when
=====  ========  ==========================================================
LM300  error     a member delivers a group's messages in a different order
                 than the order agreed by the members ahead of it (the
                 streaming form of RT300/RT305's per-group agreement)
LM301  error     a host delivers the same message twice while the message
                 is still in its confirmation window (streaming RT301)
LM302  error     a host's deliveries for a group skip or repeat the
                 ingress-assigned group sequence number (gap = the
                 streaming precursor of RT302/RT303)
LM303  warning   a message sits in a hold-back buffer past the stall
                 threshold; the alert attaches the forensics cause
                 vocabulary (loss / outage / peer_down / failover_replay /
                 epoch_switch / link_failure / in_flight) from the fault
                 records observed inside the stall window
LM304  error     a host delivers one publisher's messages to a group out
                 of publication order (streaming RT304)
=====  ========  ==========================================================

Memory is bounded by the *in-flight window*, not the run length: per-group
order windows are trimmed once every member passed a prefix, per-message
state (group-sequence stamps, duplicate-detection sets, delivery counts)
is dropped once every group member delivered the message, and fault
evidence lives in a fixed-size ring.  A duplicate arriving *after* its
message left the confirmation window is therefore only caught by the
post-hoc audit — the price of bounded state, and why campaigns run both.

With ``retain_audit=True`` (the default, used by campaigns and CI) the
monitor additionally accumulates a full :class:`repro.check.RunView` from
the same records and :meth:`final_findings` runs the *identical*
``verify_run`` predicates over it — so the live verdicts and the post-hoc
fabric audit cannot drift; the chaos campaign asserts they are equal.

Determinism: the monitor is a pure function of the record stream.  On the
sim backend a fixed seed reproduces the stream exactly, so the alert feed
is byte-identical across runs (the CI ``live-monitor`` job compares the
serialized feeds with ``cmp``).
"""

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.check.findings import Finding
from repro.check.invariants import (
    DeliveredEntry,
    PublishedEntry,
    RunView,
    verify_run,
)
from repro.obs.forensics import CAUSE_LINK_FAILURE, stall_verdict
from repro.obs.live.latency import PhaseLatencyTracker
from repro.obs.registry import MetricsRegistry
from repro.runtime.trace import TraceRecord

__all__ = ["LiveMonitor", "MonitorAlert", "MONITOR_RULES", "STALL_THRESHOLD_MS"]

#: rule id -> (severity, one-line description) — the docs table source.
MONITOR_RULES: Dict[str, Tuple[str, str]] = {
    "LM300": ("error", "group delivery order diverges from the agreed order"),
    "LM301": ("error", "duplicate delivery inside the confirmation window"),
    "LM302": ("error", "group sequence number gap or repeat at a receiver"),
    "LM303": ("warning", "hold-back stall past threshold, cause attributed"),
    "LM304": ("error", "publisher FIFO violated at a receiver"),
}

#: Default virtual-ms a message may sit buffered before LM303 fires.
STALL_THRESHOLD_MS = 50.0
#: Fault records kept for LM303's cause attribution (a ring: the oldest
#: falls out, so a stall's window sees at most this many).
FAULT_WINDOW = 512


@dataclass(frozen=True)
class MonitorAlert:
    """One streaming-monitor verdict, in stream order."""

    #: virtual time the monitor fired (not necessarily the fault time)
    time: float
    rule: str
    severity: str
    message: str
    anchor: str
    #: forensics cause verdict (LM303 only)
    cause: Optional[str] = None
    #: fault-evidence counts behind ``cause`` (LM303 only)
    evidence: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "anchor": self.anchor,
            "cause": self.cause,
            "evidence": dict(self.evidence),
        }


class LiveMonitor:
    """Streaming RT300-class invariant monitoring over a live trace.

    Parameters
    ----------
    node:
        Label for this monitor's snapshots (one per service node).
    stall_threshold_ms:
        Virtual-ms a message may sit in a hold-back buffer before LM303
        raises a stall warning.
    registry:
        Metrics registry the phase-latency histograms register with; a
        private enabled registry when omitted.
    retain_audit:
        Also accumulate the full :class:`~repro.check.RunView` so
        :meth:`final_findings` can run the post-hoc predicates.  Turn off
        for indefinitely-running services where only the windowed
        monitors (and the latency plane) should retain state.
    max_alerts:
        Hard cap on retained alerts; further alerts are counted in
        :attr:`alerts_dropped` but not stored.

    LM303's fault evidence lives in a ring of :data:`FAULT_WINDOW`
    records, a module constant like :data:`STALL_THRESHOLD_MS`'s default.
    """

    def __init__(
        self,
        node: str = "local",
        stall_threshold_ms: float = STALL_THRESHOLD_MS,
        registry: Optional[MetricsRegistry] = None,
        retain_audit: bool = True,
        max_alerts: int = 10_000,
    ):
        self.node = node
        self.stall_threshold_ms = stall_threshold_ms
        self.retain_audit = retain_audit
        self.max_alerts = max_alerts
        self.latency = PhaseLatencyTracker(registry)
        self.alerts: List[MonitorAlert] = []
        self.alerts_dropped = 0
        #: error- / warning-severity alerts raised so far, retained or
        #: dropped: a verdict never depends on how many alerts are kept
        self.violations = 0
        self.warnings = 0
        self.membership: Dict[int, FrozenSet[int]] = {}
        self.published_total = 0
        self.delivered_total = 0
        self.now = 0.0
        self.epoch: Optional[int] = None
        self._trace: Optional[Any] = None
        #: record kind -> what consumes it
        self._handlers: Dict[str, Callable[[TraceRecord], None]] = {
            "deliver": self._on_deliver,
            "buffer": self._on_buffer,
            "drain": self._on_drain,
            "publish": self._on_publish,
            "distribute": self.latency.observe,
            "atom_seq": self._on_atom_seq,
            "retransmit": self._on_retransmit,
            "link_failure": self._on_link_failure,
            "epoch_fence": self._on_epoch_fence,
            "epoch_switch": self._on_epoch_switch,
        }
        self._reset_stream_state()
        self._reset_audit_state()

    # -- lifecycle ---------------------------------------------------------

    def attach(self, fabric: Any) -> None:
        """Adopt a fabric's membership and subscribe to its trace.

        Each attach starts a fresh monitoring window (streaming state and,
        when retained, the audit view reset); cumulative alert and latency
        state persists.  Re-attach on every epoch's fabric — agreement
        with the per-epoch post-hoc audit then holds epoch by epoch.
        """
        self.adopt_membership(
            {
                group: frozenset(fabric.membership.members(group))
                for group in fabric.membership.groups()
            }
        )
        if self._trace is not None:
            self._trace.unsubscribe(self.observe)
        self._reset_stream_state()
        self._reset_audit_state()
        self._trace = fabric.trace
        fabric.trace.subscribe(self.observe)

    def detach(self) -> None:
        """Unsubscribe from the currently attached trace (idempotent)."""
        if self._trace is not None:
            self._trace.unsubscribe(self.observe)
            self._trace = None

    def adopt_membership(
        self, membership: Dict[int, FrozenSet[int]]
    ) -> None:
        """Set the group->members map the monitors check against.

        Mid-stream, the new member set is in force from the next record
        on.  A group's order window follows it: a removed member's
        position is forgotten (it can no longer hold the window open), a
        joined member starts at the head of the agreed order — it is not
        expected to deliver what was agreed before it joined, and so
        cannot hold the window open either — and every remaining member
        keeps its position, so nothing it has yet to pass is trimmed.
        """
        previous = self.membership
        self.membership = dict(membership)
        for group, window in self._order_window.items():
            before = previous.get(group, frozenset())
            after = self.membership.get(group, frozenset())
            if before == after:
                continue
            for member in before - after:
                self._order_ptr.pop((group, member), None)
            head = self._order_base[group] + len(window)
            for member in after - before:
                self._order_ptr[(group, member)] = head
            # Counts members per position: rebuilt on the next delivery.
            self._order_at.pop(group, None)

    def _reset_stream_state(self) -> None:
        #: group -> agreed delivery order window (trimmed prefix)
        self._order_window: Dict[int, List[int]] = {}
        #: group -> how many window entries were already trimmed
        self._order_base: Dict[int, int] = {}
        #: (group, host) -> deliveries seen for the group at the host
        self._order_ptr: Dict[Tuple[int, int], int] = {}
        #: group -> {position: members whose next delivery is that one},
        #: so the slowest member is the smallest key; made on the group's
        #: first delivery
        self._order_at: Dict[int, Dict[int, int]] = {}
        #: host -> messages inside the duplicate-confirmation window
        self._seen: Dict[int, Set[int]] = {}
        #: msg -> deliveries counted toward full-group confirmation
        self._deliver_count: Dict[int, int] = {}
        #: msg -> ingress-assigned group sequence number
        self._msg_group_seq: Dict[int, int] = {}
        #: (host, group) -> next expected group sequence number
        self._next_group_seq: Dict[Tuple[int, int], Optional[int]] = {}
        #: (host, sender, group) -> last in-order msg id delivered
        self._fifo_last: Dict[Tuple[int, int, int], int] = {}
        #: (host, msg) -> buffering time, for stall detection
        self._buffered: Dict[Tuple[int, int], float] = {}
        #: min-heap of (deadline, host, msg) stall candidates
        self._stall_heap: List[Tuple[float, int, int]] = []
        self._stall_alerted: Set[Tuple[int, int]] = set()
        #: host -> current hold-back depth (buffer minus drain)
        self._holdback_depth: Dict[int, int] = {}
        #: fault-evidence ring: (time, cause)
        self._recent_faults: Deque[Tuple[float, str]] = deque(
            maxlen=FAULT_WINDOW
        )
        #: epoch-switch windows: (begin, end-or-None), bounded
        self._switch_windows: Deque[Tuple[float, Optional[float]]] = deque(
            maxlen=16
        )
        #: group -> (expected members, delivered members) of the live fence
        self._fence_expected: Dict[int, FrozenSet[int]] = {}
        self._fence_delivered: Dict[int, Set[int]] = {}

    def _reset_audit_state(self) -> None:
        self._view_delivered: Dict[int, List[DeliveredEntry]] = {}
        self._view_published: Dict[int, PublishedEntry] = {}

    # -- the stream --------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Consume one trace record (the trace-subscriber entry point)."""
        now = self.now = record.time
        # Most records are of kinds no monitor reads (atom visits, hops).
        handler = self._handlers.get(record.kind)
        if handler is not None:
            handler(record)
        stalls = self._stall_heap
        if stalls and stalls[0][0] <= now:
            self._expire_stalls(now)

    def _on_atom_seq(self, record: TraceRecord) -> None:
        group_seq = record.data.get("group_seq")
        if group_seq is not None:
            self._msg_group_seq[int(record.data["msg"])] = int(group_seq)

    def _on_retransmit(self, record: TraceRecord) -> None:
        self._recent_faults.append((record.time, str(record.data["cause"])))

    def _on_link_failure(self, record: TraceRecord) -> None:
        self._recent_faults.append((record.time, CAUSE_LINK_FAILURE))

    def _on_publish(self, record: TraceRecord) -> None:
        self.published_total += 1
        self.latency.observe(record)
        if self.retain_audit:
            msg = int(record.data["msg"])
            self._view_published[msg] = PublishedEntry(
                msg,
                int(record.data["group"]),
                int(record.data["sender"]),
                record.time,
            )

    def _on_deliver(self, record: TraceRecord) -> None:
        data = record.data
        host = int(data["host"])
        msg = int(data["msg"])
        group = int(data["group"])
        self.delivered_total += 1
        self.latency.observe(record)
        if self.retain_audit:
            self._view_delivered.setdefault(host, []).append(
                DeliveredEntry(
                    msg, group, int(data["sender"]), record.time
                )
            )
        # LM301: duplicate inside the confirmation window.
        seen = self._seen.setdefault(host, set())
        if msg in seen:
            self._alert(
                record.time,
                "LM301",
                f"host {host} delivered message {msg} again "
                f"(group {group})",
                f"host {host}",
            )
        else:
            seen.add(msg)
        # LM302: ingress group-sequence contiguity.
        self._check_group_seq(record.time, host, group, msg)
        # LM304: publisher FIFO.
        fifo_key = (host, int(data["sender"]), group)
        previous = self._fifo_last.get(fifo_key, -1)
        if msg < previous:
            self._alert(
                record.time,
                "LM304",
                f"host {host} delivered message {msg} after {previous} "
                f"from the same publisher {data['sender']} in group {group}",
                f"host {host}",
            )
        else:
            self._fifo_last[fifo_key] = msg
        # LM300: agreement with the window's agreed order.
        self._check_order_window(record.time, host, group, msg)
        self._confirm_delivery(msg, group)

    def _check_group_seq(
        self, time: float, host: int, group: int, msg: int
    ) -> None:
        group_seq = self._msg_group_seq.get(msg)
        key = (host, group)
        if group_seq is None:
            # Unknown stamp (e.g. trace attached mid-run): resynchronize.
            self._next_group_seq[key] = None
            return
        expected = self._next_group_seq.get(key)
        if expected is not None and group_seq != expected:
            what = "skipped" if group_seq > expected else "repeated"
            self._alert(
                time,
                "LM302",
                f"host {host} {what} group {group} sequence numbers: "
                f"delivered #{group_seq} where #{expected} was next "
                f"(message {msg})",
                f"host {host}",
            )
        self._next_group_seq[key] = group_seq + 1

    def _check_order_window(
        self, time: float, host: int, group: int, msg: int
    ) -> None:
        members = self.membership.get(group)
        if not members or host not in members:
            return
        window = self._order_window.setdefault(group, [])
        base = self._order_base.setdefault(group, 0)
        position = self._order_ptr.get((group, host), 0)
        index = position - base
        if index == len(window):
            window.append(msg)  # this member extends the agreed order
        elif 0 <= index < len(window) and window[index] != msg:
            self._alert(
                time,
                "LM300",
                f"host {host} delivered message {msg} at group {group} "
                f"position {position} where the agreed order has "
                f"{window[index]}",
                f"group {group}",
            )
        self._order_ptr[(group, host)] = position + 1
        # Trim the prefix every member has passed (bounded window).  The
        # window is always trimmed up to the slowest member, so ``base``
        # is that member's position; members move one position at a time,
        # so when the last one standing there leaves, the next is slowest.
        at = self._order_at.get(group)
        if at is None:
            at = self._order_at[group] = self._members_at(group, members)
            slowest = min(at)
        else:
            left = at[position] - 1
            if left:
                at[position] = left
            else:
                del at[position]
            at[position + 1] = at.get(position + 1, 0) + 1
            slowest = base if left or position != base else base + 1
        if slowest > base:
            trim = min(slowest - base, len(window))
            if trim:
                del window[:trim]
                self._order_base[group] = base + trim

    def _members_at(
        self, group: int, members: FrozenSet[int]
    ) -> Dict[int, int]:
        """How many of ``members`` stand at each position of ``group``."""
        at: Dict[int, int] = {}
        for member in members:
            position = self._order_ptr.get((group, member), 0)
            at[position] = at.get(position, 0) + 1
        return at

    def _confirm_delivery(self, msg: int, group: int) -> None:
        """Evict per-message state once every group member delivered."""
        members = self.membership.get(group)
        if not members:
            return
        count = self._deliver_count.get(msg, 0) + 1
        if count >= len(members):
            self._deliver_count.pop(msg, None)
            self._msg_group_seq.pop(msg, None)
            for member in members:
                seen = self._seen.get(member)
                if seen is not None:
                    seen.discard(msg)
        else:
            self._deliver_count[msg] = count

    def _on_buffer(self, record: TraceRecord) -> None:
        host = int(record.data["host"])
        msg = int(record.data["msg"])
        self._holdback_depth[host] = self._holdback_depth.get(host, 0) + 1
        self._buffered[(host, msg)] = record.time
        heapq.heappush(
            self._stall_heap,
            (record.time + self.stall_threshold_ms, host, msg),
        )

    def _on_drain(self, record: TraceRecord) -> None:
        host = int(record.data["host"])
        msg = int(record.data["msg"])
        depth = self._holdback_depth.get(host, 0) - 1
        if depth > 0:
            self._holdback_depth[host] = depth
        else:
            self._holdback_depth.pop(host, None)
        self._buffered.pop((host, msg), None)
        self._stall_alerted.discard((host, msg))
        self.latency.observe(record)

    def _expire_stalls(self, now: float) -> None:
        heap = self._stall_heap
        while heap and heap[0][0] <= now:
            _deadline, host, msg = heapq.heappop(heap)
            key = (host, msg)
            buffered_at = self._buffered.get(key)
            if buffered_at is None or key in self._stall_alerted:
                continue
            self._stall_alerted.add(key)
            cause, evidence = self._attribute(buffered_at, now)
            self._alert(
                now,
                "LM303",
                f"host {host} has buffered message {msg} for "
                f"{now - buffered_at:.1f} ms (threshold "
                f"{self.stall_threshold_ms:.1f} ms), cause: {cause}",
                f"host {host}",
                severity="warning",
                cause=cause,
                evidence=evidence,
            )

    def _attribute(
        self, since: float, until: float
    ) -> Tuple[str, Dict[str, int]]:
        """The evidence in a stall window and its verdict.  The monitor has
        no path to match faults against, so every fault in the ring counts;
        the gap is still open, so it asks for the undrained verdict."""
        evidence: Dict[str, int] = {}
        for time, cause in self._recent_faults:
            if since <= time <= until:
                evidence[cause] = evidence.get(cause, 0) + 1
        for begin, end in self._switch_windows:
            closed = until if end is None else min(end, until)
            if begin <= until and closed >= since:
                evidence["epoch_switch"] = evidence.get("epoch_switch", 0) + 1
        return stall_verdict(evidence, drained=False), evidence

    def _on_epoch_fence(self, record: TraceRecord) -> None:
        data = record.data
        group = int(data["group"])
        self.epoch = int(data["epoch"])
        if data.get("phase") == "publish":
            members = self.membership.get(group, frozenset())
            self._fence_expected[group] = members
            self._fence_delivered.setdefault(group, set())
        elif data.get("phase") == "deliver":
            host = int(data["host"])
            delivered = self._fence_delivered.setdefault(group, set())
            delivered.add(host)
            # A fence consumed a group sequence number; the check against
            # its stamp still applies, then the expectation resets for
            # whatever numbering the next epoch starts with.
            self._check_group_seq(
                record.time, host, group, int(data["msg"])
            )
            self._next_group_seq[(host, group)] = None
            expected = self._fence_expected.get(group)
            if expected is not None and delivered >= expected:
                self._fence_expected.pop(group, None)
                self._fence_delivered.pop(group, None)

    def _on_epoch_switch(self, record: TraceRecord) -> None:
        phase = record.data.get("phase")
        self.epoch = int(record.data["epoch"])
        if phase == "begin":
            self._switch_windows.append((record.time, None))
        elif phase == "end" and self._switch_windows:
            begin, end = self._switch_windows[-1]
            if end is None:
                self._switch_windows[-1] = (begin, record.time)

    # -- verdicts ----------------------------------------------------------

    def _alert(
        self,
        time: float,
        rule: str,
        message: str,
        anchor: str,
        severity: str = "error",
        cause: Optional[str] = None,
        evidence: Optional[Dict[str, int]] = None,
    ) -> None:
        if severity == "error":
            self.violations += 1
        else:
            self.warnings += 1
        if len(self.alerts) >= self.max_alerts:
            self.alerts_dropped += 1
            return
        self.alerts.append(
            MonitorAlert(
                time=time,
                rule=rule,
                severity=severity,
                message=message,
                anchor=anchor,
                cause=cause,
                evidence=evidence or {},
            )
        )

    def holdback_occupancy(self) -> Dict[int, int]:
        """Hosts with messages currently parked in hold-back buffers."""
        return dict(sorted(self._holdback_depth.items()))

    def fences_outstanding(self) -> Dict[int, List[int]]:
        """Members yet to deliver their group's live epoch fence."""
        outstanding: Dict[int, List[int]] = {}
        for group in sorted(self._fence_expected):
            missing = sorted(
                self._fence_expected[group]
                - self._fence_delivered.get(group, set())
            )
            if missing:
                outstanding[group] = missing
        return outstanding

    def run_view(self) -> RunView:
        """The audit view accumulated from the stream (``retain_audit``)."""
        if not self.retain_audit:
            raise RuntimeError(
                "monitor was constructed with retain_audit=False; "
                "no run view was accumulated"
            )
        return RunView(
            delivered={
                host: list(entries)
                for host, entries in self._view_delivered.items()
            },
            membership=dict(self.membership),
            published=dict(self._view_published),
            pending=dict(sorted(self._holdback_depth.items())),
            track_stability=False,
        )

    def final_findings(
        self,
        complete: bool = True,
        causal: bool = True,
        mutual: bool = True,
    ) -> List[Finding]:
        """Post-hoc predicates over the streamed view — same code path as
        :func:`repro.check.verify_run` on the fabric, so a campaign can
        assert the two verdicts are identical."""
        return verify_run(
            self.run_view(), complete=complete, causal=causal, mutual=mutual
        )
