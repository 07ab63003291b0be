"""Runtime verification of ordering invariants over a completed run.

Where :mod:`repro.check.graph_verify` re-proves *static* graph properties
(C1/C2), this module audits what a simulation actually **did**: it reads
the delivery logs out of a (quiescent) :class:`~repro.core.protocol.
OrderingFabric` and re-checks the paper's end-to-end guarantees, plus the
liveness properties a fault-injection campaign puts at risk.  The chaos
runner (:mod:`repro.faults.campaign`) calls :func:`verify_run` after every
run; tests and the ``repro chaos`` CLI gate on an empty finding list.

Every check runs over a :class:`RunView` — a neutral, backend-free
projection of one run (per-host delivery logs, membership, published
messages, residual buffer depths).  A fabric is converted with
:func:`fabric_view`; the streaming monitors in :mod:`repro.obs.live`
build the *same* view incrementally from trace records and call the same
predicates, so the live verdicts and the post-hoc audit cannot drift.

Checks (``RT3xx`` codes, tool ``runtime-verify``):

* **RT300 group order** — all members of a group delivered the group's
  messages in the identical order (the paper's per-group total order).
* **RT301 duplicate delivery** — no host delivered the same message twice
  (exactly-once despite retransmission, crash recovery, and failover).
* **RT302 missing delivery** — every published message reached every
  member of its destination group (skipped with ``complete=False`` for
  runs that legitimately abandon traffic, e.g. exhausted link budgets).
* **RT303 residual buffering** — no host still holds undeliverable
  messages in its hold-back buffer (no sequencing gap survived the run).
* **RT304 publisher FIFO** — each receiver delivered any one publisher's
  messages to a group in publication order.
* **RT305 mutual consistency** — any two hosts agree on the relative
  order of every pair of messages they both delivered, across groups
  (Theorem 1's consistency, observed rather than assumed).
* **RT306 causal order** — if a publisher delivered ``m`` strictly before
  publishing ``m'``, no host that delivered both saw ``m'`` first
  (requires publishers subscribing to the groups they publish to —
  Section 3.1's causality precondition; disable with ``causal=False``).
* **RT307 stability** — every message a host learned stable was in fact
  delivered by all members of its group (``track_stability`` runs only).
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.check.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - keeps repro.check import-light
    from repro.core.protocol import OrderingFabric

TOOL = "runtime-verify"

#: Stop emitting findings for one check after this many (chaos runs with a
#: real bug would otherwise drown the report in thousands of repeats).
MAX_FINDINGS_PER_CHECK = 25


# ---------------------------------------------------------------------------
# The run view: one neutral projection both auditors consume
# ---------------------------------------------------------------------------


class Delivery(Protocol):
    """What the checks read of one application delivery.

    A :class:`DeliveredEntry` (views built from a record stream) and the
    :class:`~repro.core.delivery_log.DeliveryRecord` views of a fabric's
    own :class:`~repro.core.delivery_log.DeliveryLog` both provide it.  The
    checks read a ``DeliveryLog`` by column (:func:`_ids_of`,
    :func:`_times_of`, :func:`_facts_of`) and any other log entry by entry.
    """

    @property
    def msg_id(self) -> int: ...

    @property
    def group(self) -> int: ...

    @property
    def sender(self) -> int: ...

    @property
    def time(self) -> float:
        """When the receiver delivered (not published) the message."""


class DeliveredEntry(NamedTuple):
    """One application delivery as the auditors see it."""

    msg_id: int
    group: int
    sender: int
    #: virtual time the receiver delivered (not published) the message
    time: float


class PublishedEntry(NamedTuple):
    """One published message as the auditors see it."""

    msg_id: int
    group: int
    sender: int
    publish_time: float


@dataclass
class RunView:
    """A backend-free projection of one run, sufficient for every RT3xx check.

    Built either from a finished fabric (:func:`fabric_view`) or
    incrementally from ``publish``/``deliver``/``buffer``/``drain`` trace
    records (:class:`repro.obs.live.LiveMonitor`).  Epoch fences never
    appear: they are consumed by the fabric before the delivery log and
    emit ``epoch_fence`` records instead of ``deliver`` ones, so both
    construction paths exclude them identically.
    """

    #: host -> application deliveries in delivery order
    delivered: Dict[int, Sequence[Delivery]]
    #: group -> member set
    membership: Dict[int, FrozenSet[int]]
    #: msg_id -> publication facts (fences excluded)
    published: Dict[int, PublishedEntry]
    #: host -> messages still parked in the hold-back buffer (only > 0)
    pending: Dict[int, int] = field(default_factory=dict)
    track_stability: bool = False
    #: host -> msg ids learned stable (``track_stability`` runs only)
    stable_ids: Dict[int, Set[int]] = field(default_factory=dict)

    def hosts(self) -> List[int]:
        return sorted(self.delivered)

    def groups(self) -> List[int]:
        return sorted(self.membership)

    def members(self, group: int) -> FrozenSet[int]:
        return self.membership.get(group, frozenset())


RunLike = Union["OrderingFabric", RunView]


def fabric_view(fabric: "OrderingFabric") -> RunView:
    """Project a finished fabric into a :class:`RunView`.

    The delivery logs are column snapshots of the fabric's own (three flat
    copies per host, no record built): an audit that allocates nothing per
    delivery leaves the garbage collector nothing to scan the run's heap
    for, and a delivery after the snapshot does not reach the view.
    """
    return RunView(
        delivered={
            host_id: process.delivered.snapshot()
            for host_id, process in fabric.host_processes.items()
        },
        membership={
            group: frozenset(fabric.membership.members(group))
            for group in fabric.membership.groups()
        },
        published={
            msg_id: PublishedEntry(
                msg_id, message.group, message.sender, message.publish_time
            )
            for msg_id, message in fabric.published.items()
        },
        pending=dict(fabric.pending_messages()),
        track_stability=fabric.track_stability,
        stable_ids={
            host_id: set(process.stable_ids)
            for host_id, process in fabric.host_processes.items()
        },
    )


def as_run_view(run: RunLike) -> RunView:
    """Coerce a fabric (or pass through a view) for the check functions."""
    if isinstance(run, RunView):
        return run
    return fabric_view(run)


def _finding(code: str, message: str, anchor: str) -> Finding:
    return Finding(code=code, message=message, anchor=anchor, tool=TOOL)


def _ids_of(log: Sequence[Union[Delivery, "PublishedEntry"]]) -> Sequence[int]:
    """The message id of every entry of ``log``, in log order."""
    column = getattr(log, "msg_ids", None)
    return [r.msg_id for r in log] if column is None else column()


def _times_of(log: Sequence[Delivery]) -> Sequence[float]:
    """The delivery time of every delivery of ``log``, in log order."""
    column = getattr(log, "times", None)
    return [r.time for r in log] if column is None else column()


def _facts_of(log: Sequence[Delivery]) -> Sequence[Delivery]:
    """Per delivery of ``log``, something to read ``msg_id``, ``group`` and
    ``sender`` (not ``time``) off: the entries, or a columnar log's shared
    message headers."""
    column = getattr(log, "headers", None)
    return log if column is None else column()


def _delivered_ids(view: RunView, host_id: int) -> List[int]:
    return list(_ids_of(view.delivered.get(host_id, [])))


def check_group_order(run: RunLike) -> List[Finding]:
    """RT300: members of each group delivered its messages identically."""
    view = as_run_view(run)
    findings: List[Finding] = []
    # Read once per host, not once per group it belongs to.
    facts = {host_id: _facts_of(log) for host_id, log in view.delivered.items()}
    for group in view.groups():
        members = sorted(view.members(group))
        reference: List[int] = []
        reference_host = -1
        for host_id in members:
            order = [r.msg_id for r in facts.get(host_id, ()) if r.group == group]
            if reference_host < 0:
                reference = order
                reference_host = host_id
            elif order != reference:
                findings.append(
                    _finding(
                        "RT300",
                        f"hosts {reference_host} and {host_id} delivered "
                        f"group {group} in different orders "
                        f"({reference[:8]}... vs {order[:8]}...)",
                        f"group {group}",
                    )
                )
            if len(findings) >= MAX_FINDINGS_PER_CHECK:
                return findings
    return findings


def check_exactly_once(run: RunLike, complete: bool = True) -> List[Finding]:
    """RT301/RT302: no duplicates; every message reached every member."""
    view = as_run_view(run)
    return _exactly_once(view, _DeliveryIndex(view), complete)


def _exactly_once(
    view: RunView, index: "_DeliveryIndex", complete: bool
) -> List[Finding]:
    findings = [
        _finding(
            "RT301",
            f"host {host_id} delivered messages more than once: "
            f"{duplicates[:8]}",
            f"host {host_id}",
        )
        for host_id, duplicates in sorted(index.duplicates.items())
    ]
    if not complete or not view.published:
        return findings
    by_group: Dict[int, Set[int]] = {}
    for msg_id, message in view.published.items():
        by_group.setdefault(message.group, set()).add(msg_id)
    member_of: Dict[int, List[int]] = {}
    for group in by_group:
        for member in view.members(group):
            member_of.setdefault(member, []).append(group)
    # message -> the members that never delivered it, ascending
    missing: Dict[int, List[int]] = {}
    for host_id in sorted(member_of):
        log = view.delivered.get(host_id)
        delivered = set(_ids_of(log)) if log else set()
        for group in member_of[host_id]:
            for msg_id in by_group[group] - delivered:
                missing.setdefault(msg_id, []).append(host_id)
    short = sorted(missing)
    if len(findings) >= MAX_FINDINGS_PER_CHECK:
        # The cap is tested after each message, so the first one still counts.
        short = short[:1] if short and short[0] == min(view.published) else []
    for msg_id in short[: max(1, MAX_FINDINGS_PER_CHECK - len(findings))]:
        findings.append(
            _finding(
                "RT302",
                f"message {msg_id} (group {view.published[msg_id].group}) never "
                f"delivered at members {missing[msg_id]}",
                f"msg {msg_id}",
            )
        )
    return findings


def check_no_residual_buffering(run: RunLike) -> List[Finding]:
    """RT303: the run quiesced with empty hold-back buffers everywhere."""
    view = as_run_view(run)
    return [
        _finding(
            "RT303",
            f"host {host_id} still buffers {pending} undeliverable "
            "message(s) — a sequencing gap survived the run",
            f"host {host_id}",
        )
        for host_id, pending in sorted(view.pending.items())
    ]


def check_publisher_fifo(run: RunLike) -> List[Finding]:
    """RT304: per (publisher, group) delivery follows publication order.

    Message ids are allocated in publication order, so within one
    publisher and group the delivered id subsequence must be increasing.
    """
    view = as_run_view(run)
    findings: List[Finding] = []
    for host_id in view.hosts():
        last_seen: Dict[Tuple[int, int], int] = {}
        for record in _facts_of(view.delivered.get(host_id, [])):
            key = (record.sender, record.group)
            previous = last_seen.get(key, -1)
            if record.msg_id < previous:
                findings.append(
                    _finding(
                        "RT304",
                        f"host {host_id} delivered message {record.msg_id} "
                        f"after {previous} from the same publisher "
                        f"{record.sender} in group {record.group}",
                        f"host {host_id}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
            else:
                last_seen[key] = record.msg_id
    return findings


class _DeliveryIndex:
    """What every check that compares hosts needs of every host.

    ``hosts`` are the hosts with a log, sorted.  ``duplicates[host]``
    lists, sorted, the messages a host delivered more than once.  A
    host's ``{msg: position}`` dict is built only when asked for
    (:meth:`positions_at`): for a host a check has to look at closely.
    """

    def __init__(self, view: RunView):
        self.hosts = view.hosts()
        self._logs = view.delivered
        self._maps: Dict[int, Dict[int, int]] = {}
        self.duplicates: Dict[int, List[int]] = {}
        for host_id in self.hosts:
            ids = _ids_of(self._logs[host_id])
            if len(set(ids)) < len(ids):
                self.duplicates[host_id] = sorted(
                    msg_id for msg_id, times in Counter(ids).items() if times > 1
                )

    def positions_at(self, host_id: int) -> Dict[int, int]:
        """Where ``host_id`` delivered each message it delivered (its last
        delivery's position, for a message delivered twice)."""
        positions = self._maps.get(host_id)
        if positions is None:
            positions = self._maps[host_id] = {
                msg_id: position
                for position, msg_id in enumerate(_ids_of(self._logs[host_id]))
            }
        return positions


def _groups_of(view: RunView) -> Dict[int, int]:
    """The group each published message was published to."""
    return {msg_id: message.group for msg_id, message in view.published.items()}


class _Suspects(NamedTuple):
    """The host pairs that may disagree on the order of two messages.

    Every pair with an ``odd`` host — one that delivered a message twice or
    delivered a message never published — and each pair in ``partners``.
    Any other pair agrees on every message pair it delivered.
    """

    odd: Set[int]
    #: host -> the hosts it may disagree with (symmetric)
    partners: Dict[int, Set[int]]

    def of(self, host_id: int) -> Set[int]:
        return self.partners.get(host_id, set())


def _find_suspects(view: RunView, index: _DeliveryIndex) -> _Suspects:
    """Host pairs that may disagree, found group pair by group pair.

    Two hosts disagree on messages ``m1`` and ``m2`` only if both
    delivered from ``m1``'s group and ``m2``'s, and then their logs
    projected onto those two groups disagree on them.  So each host is
    keyed, per pair of groups it delivered from (a group with itself
    included), by its projection; hosts with equal projections agree on
    that pair, and two projections are compared on their common messages
    once, not once per pair of hosts holding them.  A correct run has one
    projection per group pair and no suspect (DESIGN.md §4.2p).
    """
    group_of = _groups_of(view)
    odd = set(index.duplicates)
    #: (group, group) -> projection -> hosts holding it
    holders: Dict[Tuple[int, int], Dict[Tuple[int, ...], List[int]]] = {}
    for host_id in index.hosts:
        if host_id in odd:
            continue
        ids = list(_ids_of(view.delivered[host_id]))
        try:
            labels = [group_of[msg_id] for msg_id in ids]
        except KeyError:
            odd.add(host_id)
            continue
        # Each group's log positions, ascending: one stable sort by group.
        by_label = sorted(range(len(ids)), key=labels.__getitem__)
        at: Dict[int, List[int]] = {}
        start = 0
        for group, count in sorted(Counter(labels).items()):
            at[group] = by_label[start : start + count]
            start += count
        groups = list(at)
        for i, first in enumerate(groups):
            for second in groups[i:]:
                merged = at[first] if first == second else sorted(at[first] + at[second])
                holders.setdefault((first, second), {}).setdefault(
                    tuple(map(ids.__getitem__, merged)), []
                ).append(host_id)
    partners: Dict[int, Set[int]] = {}
    for by_projection in holders.values():
        kinds = list(by_projection.items())
        for i, (mine, hosts) in enumerate(kinds):
            for theirs, others in kinds[i + 1 :]:
                if not _same_common_order(mine, theirs):
                    for host_id in hosts:
                        partners.setdefault(host_id, set()).update(others)
                    for host_id in others:
                        partners.setdefault(host_id, set()).update(hosts)
    return _Suspects(odd, partners)


def _same_common_order(mine: Sequence[int], theirs: Sequence[int]) -> bool:
    """Whether two projections order the messages they share alike."""
    shared = set(mine) & set(theirs)
    return [m for m in mine if m in shared] == [m for m in theirs if m in shared]


def check_mutual_consistency(run: RunLike) -> List[Finding]:
    """RT305: pairwise agreement on the order of commonly delivered messages.

    Only the suspect pairs of :func:`_find_suspects` can disagree; each is
    compared message by message, in host order.
    """
    view = as_run_view(run)
    index = _DeliveryIndex(view)
    return _mutual_consistency(view, index, _find_suspects(view, index))


def _mutual_consistency(
    view: RunView, index: _DeliveryIndex, suspects: _Suspects
) -> List[Finding]:
    findings: List[Finding] = []
    host_ids = index.hosts

    def common_order(host_id: int, other: int) -> List[int]:
        theirs = index.positions_at(other)
        return [m for m in _ids_of(view.delivered[host_id]) if m in theirs]

    for row, a in enumerate(host_ids):
        later = host_ids[row + 1 :]
        if a not in suspects.odd:
            partners = suspects.of(a)
            later = [b for b in later if b in suspects.odd or b in partners]
        for b in later:
            if common_order(a, b) != common_order(b, a):
                findings.append(
                    _finding(
                        "RT305",
                        f"hosts {a} and {b} disagree on the relative order "
                        "of commonly delivered messages",
                        f"hosts {a},{b}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def check_causal_order(run: RunLike) -> List[Finding]:
    """RT306: publish-after-deliver dependencies respected everywhere.

    For each message ``m'``, its causal dependencies are the messages its
    publisher had *delivered* strictly before publishing ``m'``.  Any host
    delivering both must deliver the dependency first.  Deliveries at the
    same virtual instant as the publish are skipped (ordering within one
    instant is not observable from the logs).

    The dependencies of ``m'`` are a prefix of its publisher's log taken
    in time order, so a host breaks the rule for ``m'`` iff the latest
    position at which it delivered any message of that prefix lies after
    its position of ``m'``: one running maximum per (publisher, host)
    finds every offending (message, host); only those name their
    dependencies.  When the publisher itself delivered ``m'`` once and
    after the whole prefix, a host that agrees with it on every common
    message pair (no RT305 suspect) delivers every dependency it shares
    first, so only the publisher's suspects are looked at for ``m'``.
    """
    view = as_run_view(run)
    index = _DeliveryIndex(view)
    return _causal_order(view, index, _find_suspects(view, index))


def _causal_order(
    view: RunView, index: _DeliveryIndex, suspects: _Suspects
) -> List[Finding]:
    by_sender: Dict[int, List[PublishedEntry]] = {}
    for message in view.published.values():
        by_sender.setdefault(message.sender, []).append(message)
    row_of = {host_id: row for row, host_id in enumerate(index.hosts)}
    offending: List[Tuple[int, int]] = []
    for sender, messages in by_sender.items():
        log = view.delivered.get(sender)
        if not log:
            continue
        times = _times_of(log)
        # Per message, how many of the sender's deliveries it depends on.
        in_time = sorted(times)
        needs = [bisect_left(in_time, m.publish_time) for m in messages]
        deepest = max(needs)
        if not deepest:
            continue
        ids = _ids_of(log)
        by_time = sorted(range(len(times)), key=times.__getitem__)[:deepest]
        dependencies = [ids[i] for i in by_time]
        # The sender's latest log position among its first k dependencies.
        latest = list(accumulate(by_time, max))
        own = {} if sender in suspects.odd else dict(zip(ids, range(len(ids))))
        everywhere: List[Tuple[int, int]] = []
        at_suspects: List[Tuple[int, int]] = []
        for message, k in zip(messages, needs):
            if k:
                after = latest[k - 1] < own.get(message.msg_id, -1)
                (at_suspects if after else everywhere).append((message.msg_id, k))
        if everywhere:
            rows: Iterable[int] = range(len(index.hosts))
        else:
            rows = sorted(row_of[h] for h in suspects.odd | suspects.of(sender))
        for row in rows:
            host_id = index.hosts[row]
            pending = everywhere
            if host_id in suspects.odd or host_id in suspects.of(sender):
                pending = everywhere + at_suspects
            if not pending:
                continue
            position = index.positions_at(host_id)
            depth = max(k for _, k in pending)
            highest = list(
                accumulate((position.get(d, -1) for d in dependencies[:depth]), max)
            )
            offending.extend(
                (msg_id, row)
                for msg_id, k in pending
                if msg_id in position and position[msg_id] < highest[k - 1]
            )
    findings: List[Finding] = []
    for msg_id, row in sorted(offending):
        host_id = index.hosts[row]
        position = index.positions_at(host_id)
        message = view.published[msg_id]
        for r in view.delivered[message.sender]:
            if (
                r.time < message.publish_time
                and position.get(r.msg_id, -1) > position[msg_id]
            ):
                findings.append(
                    _finding(
                        "RT306",
                        f"host {host_id} delivered {msg_id} before its "
                        f"causal dependency {r.msg_id} (publisher "
                        f"{message.sender} delivered {r.msg_id} before "
                        f"publishing {msg_id})",
                        f"host {host_id}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def check_stability(run: RunLike) -> List[Finding]:
    """RT307: stability notices imply delivery at every group member."""
    view = as_run_view(run)
    findings: List[Finding] = []
    if not view.track_stability:
        return findings
    delivered_sets = {
        host_id: set(_delivered_ids(view, host_id))
        for host_id in view.hosts()
    }
    for host_id in sorted(view.stable_ids):
        for msg_id in sorted(view.stable_ids[host_id]):
            message = view.published.get(msg_id)
            if message is None:
                continue
            missing = [
                member
                for member in sorted(view.members(message.group))
                if msg_id not in delivered_sets.get(member, set())
            ]
            if missing:
                findings.append(
                    _finding(
                        "RT307",
                        f"host {host_id} learned message {msg_id} stable "
                        f"but members {missing} never delivered it",
                        f"msg {msg_id}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def verify_run(
    run: RunLike,
    complete: bool = True,
    causal: bool = True,
    mutual: bool = True,
) -> List[Finding]:
    """Audit a finished run against the paper's delivery guarantees.

    Parameters
    ----------
    run:
        A fabric whose simulation has run to quiescence, or an
        already-built :class:`RunView` (the streaming monitors pass one,
        so the live verdicts go through the exact same predicates).
    complete:
        Also require every published message delivered at every member
        (RT302) — disable for runs that intentionally abandon traffic.
    causal:
        Check publish-after-deliver causality (RT306); valid when
        publishers subscribe to the groups they publish to.
    mutual:
        Check pairwise cross-group agreement (RT305).

    Returns the (possibly empty) list of findings, deterministic in order.
    RT301/RT302, RT305 and RT306 read one :class:`_DeliveryIndex`, and
    RT305 and RT306 one set of suspect host pairs.
    """
    view = as_run_view(run)
    index = _DeliveryIndex(view)
    findings: List[Finding] = []
    findings.extend(check_group_order(view))
    findings.extend(_exactly_once(view, index, complete))
    findings.extend(check_no_residual_buffering(view))
    findings.extend(check_publisher_fifo(view))
    if mutual or causal:
        suspects = _find_suspects(view, index)
    if mutual:
        findings.extend(_mutual_consistency(view, index, suspects))
    if causal:
        findings.extend(_causal_order(view, index, suspects))
    findings.extend(check_stability(view))
    return findings
