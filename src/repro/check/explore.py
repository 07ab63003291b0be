"""Schedule-space model checker for small ordering-fabric configurations.

``repro check`` proves the *graph* (GV2xx) and audits *one* schedule per
run (RT3xx).  This module closes the gap between the two: it drives the
unmodified protocol core over the controller-driven
:class:`~repro.runtime.explore_backend.ExploreTransport` and enumerates
**every** reduced interleaving of packet deliveries and fault-plan timers
for a small topology, checking machine-readable safety invariants at each
terminal (quiescent) state:

* **MC400 pairwise order** — receivers sharing ≥ 2 groups agree on the
  relative order of commonly delivered messages (the paper's Theorem 1,
  checked per adversarial schedule rather than per simulated run).
* **MC401 duplicate delivery** — no host delivered a message twice.
* **MC402 dropped delivery** — every published message reached every
  member (skipped when the fault plan legitimately abandons traffic).
* **MC403 hold-back drained** — no residual buffering at quiescence.
* **MC404 atom-sequence contiguity** — every delivered stamp carries a
  sequence number from each active sequencing atom of its group's path,
  and per (host, atom) the observed numbers are strictly increasing
  (contiguous from 1 across the run when complete).
* **MC405 group-sequence contiguity** — per (host, group) delivered
  group-local sequence numbers are strictly increasing, and exactly
  ``1..k`` when the run is complete.
* **MC406 graph invariants** — C1/C2 etc. on the live graph via
  :func:`repro.check.graph_verify.verify_graph` (checked once per
  exploration; the graph is schedule-independent).

**State-space model.**  A state is the full fabric state; a transition is
either (a) delivering the head of one non-empty FIFO wire queue, (b)
firing the earliest pending *fault-plan* timer, or (c) — only at delivery
quiescence — firing the earliest *derived* timer (retransmissions,
service completions).  Deferring derived timers to quiescence is a
feasibility-preserving reduction: a retransmission that fires while its
original copy is still in flight is deduplicated by the reliable link
layer, so interleaving it cannot change any delivered order, only
multiply equivalent schedules.

**Partial-order reduction.**  Two delivery transitions with different
destination processes commute: each pops its own queue, mutates only the
destination's protocol state, and appends only to queues keyed by that
destination (loss draws are per-channel — see
:mod:`repro.runtime.explore_backend`).  The DFS carries *sleep sets*
seeded with explored independent siblings, so commuting interleavings are
explored once.  Timer transitions are treated as globally dependent.

A violation is captured as a replayable **counterexample**: the scenario
config plus the exact transition-key schedule.  The harness then shrinks
the published-message set greedily (re-exploring after each removal) and
replays the minimal schedule with tracing enabled so the ``repro
explain`` machinery (:mod:`repro.obs.forensics`) can render the
implicated messages' journeys.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.check.findings import Finding
from repro.check.graph_verify import verify_graph
from repro.runtime.explore_backend import ExploreTransport

TOOL = "model-check"

COUNTEREXAMPLE_FORMAT = "repro-explore-counterexample"
COUNTEREXAMPLE_VERSION = 1

#: stop emitting findings per check (mirrors repro.check.invariants)
MAX_FINDINGS_PER_CHECK = 25

#: retransmit timeout for crash scenarios (fault injection needs the
#: reliable link layer even on loss-free wires)
CRASH_RETRANSMIT_TIMEOUT = 5.0


def _finding(code: str, message: str, anchor: str) -> Finding:
    return Finding(code=code, message=message, anchor=anchor, tool=TOOL)


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreConfig:
    """One model-checking scenario: topology shape, workload, budget.

    Group ``g`` has members ``{(g + j) % hosts : j < 3}``, which makes
    consecutive groups overlap in ≥ 2 hosts — the regime where overlap
    atoms (and hence cross-group ordering) exist.  Each round publishes
    one message per group, rotating the sender through the members.
    """

    groups: int = 2
    hosts: int = 3
    messages: int = 1          # publish rounds (one message per group each)
    seed: int = 0
    loss_rate: float = 0.0
    #: (node_id, at, duration) crash actions; duration None = permanent
    crashes: Tuple[Tuple[int, float, Optional[float]], ...] = ()
    #: seeded protocol mutation (see MUTATIONS) for checker validation
    mutate: Optional[str] = None
    max_schedules: int = 5000
    max_depth: int = 200
    #: publish indices suppressed (counterexample minimization)
    skip_messages: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.groups < 1 or self.hosts < 2:
            raise ValueError("explore needs >= 1 group and >= 2 hosts")
        if self.mutate is not None and self.mutate not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {self.mutate!r} "
                f"(have: {', '.join(sorted(MUTATIONS))})"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "groups": self.groups,
            "hosts": self.hosts,
            "messages": self.messages,
            "seed": self.seed,
            "loss_rate": self.loss_rate,
            "crashes": [list(c) for c in self.crashes],
            "mutate": self.mutate,
            "max_schedules": self.max_schedules,
            "max_depth": self.max_depth,
            "skip_messages": list(self.skip_messages),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExploreConfig":
        return cls(
            groups=int(data["groups"]),
            hosts=int(data["hosts"]),
            messages=int(data.get("messages", 1)),
            seed=int(data.get("seed", 0)),
            loss_rate=float(data.get("loss_rate", 0.0)),
            crashes=tuple(
                (int(n), float(at), None if dur is None else float(dur))
                for n, at, dur in data.get("crashes", [])
            ),
            mutate=data.get("mutate"),
            max_schedules=int(data.get("max_schedules", 5000)),
            max_depth=int(data.get("max_depth", 200)),
            skip_messages=tuple(int(i) for i in data.get("skip_messages", [])),
        )

    def layout(self) -> Dict[int, List[int]]:
        """Group -> sorted member host ids."""
        span = min(3, self.hosts)
        return {
            g: sorted({(g + j) % self.hosts for j in range(span)})
            for g in range(self.groups)
        }

    def publishes(self) -> List[Tuple[int, int]]:
        """The full (sender, group) publish plan, before ``skip_messages``."""
        layout = self.layout()
        plan: List[Tuple[int, int]] = []
        for round_index in range(self.messages):
            for group in range(self.groups):
                members = layout[group]
                plan.append((members[round_index % len(members)], group))
        return plan

    def label(self) -> str:
        parts = [f"groups={self.groups}", f"hosts={self.hosts}",
                 f"messages={self.messages}", f"seed={self.seed}"]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate}")
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)}")
        if self.mutate:
            parts.append(f"mutate={self.mutate}")
        return f"explore({', '.join(parts)})"


class _Context:
    """Reusable substrate shared by every replay of one exploration.

    Topology, routing, membership, graph, and placement are all
    schedule-independent, so they are built once; only the fabric (and
    its transport) is rebuilt per schedule.
    """

    def __init__(self, config: ExploreConfig):
        # Heavy imports stay local so `import repro.check` stays light.
        from repro.experiments.common import ExperimentEnv

        self.config = config
        self.env = ExperimentEnv(n_hosts=config.hosts, seed=config.seed)
        layout = {g: frozenset(m) for g, m in config.layout().items()}
        self.membership = self.env.membership_from(layout)
        self.graph = self.env.build_graph(layout, seed=config.seed)
        self.placement = self.env.build_placement(self.graph, seed=config.seed)
        self.publishes = config.publishes()
        #: MC402/contiguity hold only when no fault can abandon traffic
        self.complete_workload = all(
            duration is not None for _node, _at, duration in config.crashes
        )


class ScheduleDivergence(RuntimeError):
    """A recorded schedule no longer matches the reconstructed state."""


class _Transition(NamedTuple):
    """One enabled transition, addressed by a replay-stable key."""

    key: Tuple[Any, ...]
    kind: str                 # "deliver" | "plan" | "timer"
    owner: Optional[str]      # destination process (deliveries only)


def _independent(a: _Transition, b: _Transition) -> bool:
    """Whether two transitions commute (POR independence relation).

    Only deliveries to *different* processes are independent; timer
    transitions (fault actions, retransmissions) touch shared state and
    are conservatively dependent with everything.
    """
    return (
        a.kind == "deliver"
        and b.kind == "deliver"
        and a.owner != b.owner
    )


class _Run:
    """One reconstructed execution: fabric + enabled-transition surface."""

    def __init__(self, ctx: _Context, trace: bool = False):
        config = ctx.config
        self.runtime = ExploreTransport(
            seed=config.seed, loss_rate=config.loss_rate
        )
        kwargs: Dict[str, Any] = {}
        if config.crashes:
            kwargs["retransmit_timeout"] = CRASH_RETRANSMIT_TIMEOUT
        self.fabric = ctx.env.build_fabric(
            ctx.membership,
            seed=config.seed,
            runtime=self.runtime,
            trace=trace,
            graph=ctx.graph,
            placement=ctx.placement,
            **kwargs,
        )
        if config.mutate is not None:
            MUTATIONS[config.mutate](self.fabric)
        if config.crashes:
            from repro.faults.plan import CrashNode, FaultPlan

            plan = FaultPlan()
            for node_id, at, duration in config.crashes:
                if node_id not in self.fabric.node_processes:
                    raise ValueError(
                        f"crash targets unknown sequencing node {node_id} "
                        f"(have {sorted(self.fabric.node_processes)})"
                    )
                plan.add(CrashNode(at=at, node_id=node_id, duration=duration))
            plan.apply(self.fabric)
        # Everything scheduled so far is the fault plan; all later timers
        # (retransmissions, service completions) are derived.
        self.runtime.scheduler.seal_plan()
        for index, (sender, group) in enumerate(ctx.publishes):
            if index not in config.skip_messages:
                self.fabric.publish(sender, group)

    def enabled(self) -> List[_Transition]:
        transitions: List[_Transition] = []
        for label, channel in self.runtime.transport.delivery_sources():
            transitions.append(
                _Transition(
                    key=("deliver",) + label,
                    kind="deliver",
                    owner=repr(channel.dst.name),
                )
            )
        scheduler = self.runtime.scheduler
        if scheduler.timers(plan=True):
            transitions.append(_Transition(("plan-timer",), "plan", None))
        if not transitions and scheduler.timers(plan=False):
            transitions.append(_Transition(("derived-timer",), "timer", None))
        return transitions

    def execute(self, transition: _Transition) -> None:
        if transition.kind == "deliver":
            label = transition.key[1:]
            for candidate, channel in self.runtime.transport.delivery_sources():
                if candidate == label:
                    channel.deliver_head()
                    return
            raise ScheduleDivergence(f"no deliverable channel {label}")
        timers = self.runtime.scheduler.timers(
            plan=(transition.kind == "plan")
        )
        if not timers:
            raise ScheduleDivergence(f"no live {transition.kind} timer")
        self.runtime.scheduler.fire(timers[0])


# ---------------------------------------------------------------------------
# Terminal-state invariants (MC400-MC405; MC406 is per-exploration)
# ---------------------------------------------------------------------------


def check_terminal(fabric: Any, complete: bool = True) -> List[Finding]:
    """Audit one quiescent terminal state against MC400-MC405."""
    findings: List[Finding] = []
    findings.extend(_check_pairwise_order(fabric))
    findings.extend(_check_exactly_once(fabric, complete))
    findings.extend(_check_holdback_drained(fabric))
    findings.extend(_check_atom_contiguity(fabric, complete))
    findings.extend(_check_group_contiguity(fabric, complete))
    return findings


def _delivered(fabric: Any, host_id: int) -> List[Any]:
    """What ``host_id`` delivered, in order, as the log's shared message
    headers: MC40x reads ``msg_id`` and ``stamp``, never a delivery time,
    and a terminal state is audited once per explored schedule."""
    return fabric.host_processes[host_id].delivered.headers()


def _check_pairwise_order(fabric: Any) -> List[Finding]:
    """MC400: hosts sharing >= 2 groups agree on common delivery order."""
    findings: List[Finding] = []
    host_ids = sorted(fabric.host_processes)
    groups_of = {
        h: set(fabric.membership.groups_of(h)) for h in host_ids
    }
    orders = {
        h: [r.msg_id for r in _delivered(fabric, h)] for h in host_ids
    }
    for i, a in enumerate(host_ids):
        for b in host_ids[i + 1:]:
            shared = groups_of[a] & groups_of[b]
            if len(shared) < 2:
                continue
            common = set(orders[a]) & set(orders[b])
            ordered_a = [m for m in orders[a] if m in common]
            ordered_b = [m for m in orders[b] if m in common]
            if ordered_a != ordered_b:
                findings.append(
                    _finding(
                        "MC400",
                        f"hosts {a} and {b} (sharing groups "
                        f"{sorted(shared)}) delivered common messages in "
                        f"different orders ({ordered_a[:8]} vs "
                        f"{ordered_b[:8]})",
                        f"hosts {a},{b}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def _check_exactly_once(fabric: Any, complete: bool) -> List[Finding]:
    """MC401 (duplicates) and MC402 (drops, complete runs only)."""
    findings: List[Finding] = []
    counts: Dict[int, Dict[int, int]] = {}
    for host_id in sorted(fabric.host_processes):
        per_host: Dict[int, int] = {}
        for record in _delivered(fabric, host_id):
            per_host[record.msg_id] = per_host.get(record.msg_id, 0) + 1
        counts[host_id] = per_host
        duplicates = sorted(m for m, n in per_host.items() if n > 1)
        if duplicates:
            findings.append(
                _finding(
                    "MC401",
                    f"host {host_id} delivered messages more than once: "
                    f"{duplicates[:8]}",
                    f"host {host_id}",
                )
            )
    if not complete:
        return findings
    for msg_id in sorted(fabric.published):
        message = fabric.published[msg_id]
        missing = [
            member
            for member in sorted(fabric.membership.members(message.group))
            if counts.get(member, {}).get(msg_id, 0) == 0
        ]
        if missing:
            findings.append(
                _finding(
                    "MC402",
                    f"message {msg_id} (group {message.group}) never "
                    f"delivered at members {missing}",
                    f"msg {msg_id}",
                )
            )
        if len(findings) >= MAX_FINDINGS_PER_CHECK:
            break
    return findings


def _check_holdback_drained(fabric: Any) -> List[Finding]:
    """MC403: quiescence implies empty hold-back buffers everywhere."""
    return [
        _finding(
            "MC403",
            f"host {host_id} still buffers {pending} undeliverable "
            "message(s) at quiescence — a sequencing gap survived "
            "the schedule",
            f"host {host_id}",
        )
        for host_id, pending in sorted(fabric.pending_messages().items())
    ]


def _stamping_atoms(fabric: Any) -> Dict[int, List[Any]]:
    """Group -> active atoms that must stamp its messages, in path order."""
    graph = fabric.graph
    expected: Dict[int, List[Any]] = {}
    for group in sorted(fabric.membership.groups()):
        expected[group] = [
            atom
            for atom in graph.group_path(group)
            if atom.sequences_group(group)
            and not atom.is_ingress_only
            and atom not in graph.retired
        ]
    return expected


def _check_atom_contiguity(fabric: Any, complete: bool) -> List[Finding]:
    """MC404: every stamp carries its path's atom seqs, without gaps."""
    findings: List[Finding] = []
    expected = _stamping_atoms(fabric)
    seen_global: Dict[Any, Set[int]] = {}
    for host_id in sorted(fabric.host_processes):
        last: Dict[Any, int] = {}
        for record in _delivered(fabric, host_id):
            group = record.stamp.group
            for atom in expected.get(group, ()):
                seq = record.stamp.seq_of(atom)
                if seq is None:
                    findings.append(
                        _finding(
                            "MC404",
                            f"host {host_id} delivered message "
                            f"{record.msg_id} (group {group}) whose stamp "
                            f"carries no sequence number from atom {atom!r}",
                            f"host {host_id}",
                        )
                    )
                    if len(findings) >= MAX_FINDINGS_PER_CHECK:
                        return findings
                    continue
                seen_global.setdefault(atom, set()).add(seq)
                previous = last.get(atom)
                if previous is not None and seq <= previous:
                    findings.append(
                        _finding(
                            "MC404",
                            f"host {host_id} saw atom {atom!r} sequence "
                            f"{seq} after {previous} — per-atom order "
                            "regressed",
                            f"host {host_id}",
                        )
                    )
                    if len(findings) >= MAX_FINDINGS_PER_CHECK:
                        return findings
                last[atom] = seq
    if complete:
        for atom in sorted(seen_global, key=repr):
            seqs = seen_global[atom]
            expected_range = set(range(1, max(seqs) + 1))
            gaps = sorted(expected_range - seqs)
            if gaps:
                findings.append(
                    _finding(
                        "MC404",
                        f"atom {atom!r} sequence numbers have gaps "
                        f"{gaps[:8]} — some stamped message vanished",
                        f"atom {atom!r}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def _check_group_contiguity(fabric: Any, complete: bool) -> List[Finding]:
    """MC405: per (host, group) group-local seqs increase (1..k complete)."""
    findings: List[Finding] = []
    for host_id in sorted(fabric.host_processes):
        per_group: Dict[int, List[int]] = {}
        for record in _delivered(fabric, host_id):
            per_group.setdefault(record.stamp.group, []).append(
                record.stamp.group_seq
            )
        for group in sorted(per_group):
            seqs = per_group[group]
            increasing = all(b > a for a, b in zip(seqs, seqs[1:]))
            if not increasing:
                findings.append(
                    _finding(
                        "MC405",
                        f"host {host_id} delivered group {group} "
                        f"sequence numbers out of order: {seqs[:10]}",
                        f"host {host_id}",
                    )
                )
            elif complete and seqs != list(range(1, len(seqs) + 1)):
                findings.append(
                    _finding(
                        "MC405",
                        f"host {host_id} delivered group {group} "
                        f"sequence numbers {seqs[:10]} — not the "
                        f"contiguous 1..{len(seqs)}",
                        f"host {host_id}",
                    )
                )
            if len(findings) >= MAX_FINDINGS_PER_CHECK:
                return findings
    return findings


def _graph_findings(ctx: _Context) -> List[Finding]:
    """MC406: C1/C2 + structural invariants on the (schedule-independent)
    live graph, via the existing certificate verifier."""
    return [
        _finding(
            "MC406",
            f"{gv.code}: {gv.message}",
            gv.anchor or "<graph>",
        )
        for gv in verify_graph(ctx.graph, ctx.placement)
    ]


# ---------------------------------------------------------------------------
# Seeded mutations (checker validation harness)
# ---------------------------------------------------------------------------


def _mutate_skip_stamp(fabric: Any) -> None:
    """First message through the first overlap atom skips its stamp."""
    for node_id in sorted(fabric.node_processes):
        process = fabric.node_processes[node_id]
        for atom_id in sorted(process.atom_runtimes, key=repr):
            if atom_id.is_ingress_only:
                continue
            runtime = process.atom_runtimes[atom_id]
            original = runtime.process
            state = {"armed": True}

            def patched(message, _runtime=runtime, _original=original,
                        _state=state):
                if _state["armed"]:
                    _state["armed"] = False
                    # A retired atom passes messages through unstamped;
                    # faking retirement for one visit reproduces a
                    # lost-stamp bug without touching protocol code.
                    _runtime.retired = True
                    try:
                        return _original(message)
                    finally:
                        _runtime.retired = False
                return _original(message)

            runtime.process = patched  # type: ignore[method-assign]
            return
    raise ValueError("skip-stamp needs at least one overlap atom")


def _mutate_drop_delivery(fabric: Any) -> None:
    """The first distribution packet (a message header) is silently
    discarded."""
    from repro.core.delivery_log import MessageHeader

    original = fabric._transmit
    state = {"armed": True}

    def patched(src, dst, packet, _original=original, _state=state):
        if _state["armed"] and isinstance(packet, MessageHeader):
            _state["armed"] = False
            return
        _original(src, dst, packet)

    fabric._transmit = patched  # type: ignore[method-assign]


def _mutate_dup_delivery(fabric: Any) -> None:
    """One host's hold-back releases its first delivery twice."""
    host = fabric.host_processes[min(fabric.host_processes)]
    original = host.delivery.on_receive
    state = {"armed": True}

    def patched(stamp, payload, _original=original, _state=state):
        released = _original(stamp, payload)
        if _state["armed"] and released:
            _state["armed"] = False
            return list(released) + list(released)
        return released

    host.delivery.on_receive = patched  # type: ignore[method-assign]


MUTATIONS = {
    "skip-stamp": _mutate_skip_stamp,
    "drop-delivery": _mutate_drop_delivery,
    "dup-delivery": _mutate_dup_delivery,
}


# ---------------------------------------------------------------------------
# Sleep-set DFS over schedules
# ---------------------------------------------------------------------------


class _Frame:
    """One decision point on the DFS path."""

    __slots__ = ("enabled", "sleep", "done", "choice")

    def __init__(
        self,
        enabled: List[_Transition],
        sleep: frozenset,
        choice: _Transition,
    ):
        self.enabled = enabled
        self.sleep = sleep
        self.done: List[_Transition] = []
        self.choice = choice


@dataclass
class ExploreResult:
    """Deterministic exploration statistics plus any violations."""

    config: ExploreConfig
    #: completed descents (terminal + sleep-blocked + depth-truncated)
    schedules: int = 0
    terminal_states: int = 0
    transitions: int = 0
    sleep_blocked: int = 0
    depth_truncated: int = 0
    #: False when the schedule budget stopped the search early
    exhausted: bool = True
    violations: List[Finding] = field(default_factory=list)
    #: transition-key schedule of the first violating terminal state
    counterexample_schedule: Optional[List[Tuple[Any, ...]]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def stats(self) -> Dict[str, Any]:
        return {
            "schedules": self.schedules,
            "terminal_states": self.terminal_states,
            "transitions": self.transitions,
            "sleep_blocked": self.sleep_blocked,
            "depth_truncated": self.depth_truncated,
            "exhausted": self.exhausted,
        }


def explore(
    config: ExploreConfig, ctx: Optional[_Context] = None
) -> ExploreResult:
    """Enumerate the reduced schedule space; stop at the first violation.

    Stateless-search style: each schedule replays its decided prefix
    against a fresh fabric (no state snapshotting), then extends
    first-choice to a terminal state.  Sleep sets prune interleavings of
    independent deliveries.
    """
    if ctx is None:
        ctx = _Context(config)
    result = ExploreResult(config=config)
    result.violations.extend(_graph_findings(ctx))
    if result.violations:
        return result

    frames: List[_Frame] = []

    def child_sleep(
        sleep: frozenset, done: Sequence[_Transition], chosen: _Transition
    ) -> frozenset:
        pool = set(sleep) | set(done)
        return frozenset(s for s in pool if _independent(s, chosen))

    def descend(run: _Run, sleep: frozenset) -> Tuple[str, _Run]:
        while True:
            enabled = run.enabled()
            if not enabled:
                return "terminal", run
            slept = {s.key for s in sleep}
            candidates = [t for t in enabled if t.key not in slept]
            if not candidates:
                result.sleep_blocked += 1
                return "blocked", run
            if len(frames) >= config.max_depth:
                result.depth_truncated += 1
                return "deep", run
            choice = candidates[0]
            frames.append(_Frame(enabled, sleep, choice))
            run.execute(choice)
            result.transitions += 1
            sleep = child_sleep(sleep, (), choice)

    def finish(outcome: str, run: _Run) -> bool:
        result.schedules += 1
        if outcome != "terminal":
            return False
        result.terminal_states += 1
        complete = ctx.complete_workload and not run.fabric.link_failures
        findings = check_terminal(run.fabric, complete=complete)
        if findings:
            result.violations.extend(findings)
            result.counterexample_schedule = [f.choice.key for f in frames]
            return True
        return False

    outcome, run = descend(_Run(ctx), frozenset())
    stop = finish(outcome, run)
    while not stop and frames:
        if result.schedules >= config.max_schedules:
            result.exhausted = False
            break
        frame = frames[-1]
        frame.done.append(frame.choice)
        blocked = {s.key for s in frame.sleep} | {d.key for d in frame.done}
        remaining = [t for t in frame.enabled if t.key not in blocked]
        if not remaining:
            frames.pop()
            continue
        frame.choice = remaining[0]
        run = _Run(ctx)
        for prior in frames[:-1]:
            run.execute(prior.choice)
        run.execute(frame.choice)
        result.transitions += len(frames)
        outcome, run = descend(
            run, child_sleep(frame.sleep, frame.done[:-1], frame.choice)
        )
        stop = finish(outcome, run)
    return result


# ---------------------------------------------------------------------------
# Counterexamples: capture, minimize, replay
# ---------------------------------------------------------------------------


def counterexample_document(
    config: ExploreConfig,
    schedule: Sequence[Tuple[Any, ...]],
    findings: Sequence[Finding],
) -> Dict[str, Any]:
    """JSON-serializable, replayable counterexample."""
    return {
        "format": COUNTEREXAMPLE_FORMAT,
        "version": COUNTEREXAMPLE_VERSION,
        "config": config.to_dict(),
        "schedule": [list(key) for key in schedule],
        "findings": [f.to_dict() for f in findings],
    }


def minimize_counterexample(
    config: ExploreConfig, baseline: ExploreResult
) -> Tuple[ExploreConfig, ExploreResult]:
    """Greedy shrink of the published-message set.

    One pass over the publish plan: drop each message in turn, re-explore,
    and keep the drop when a violation with an overlapping code set
    survives.  Sound (the result still violates) if not globally minimal.
    """
    target_codes = {f.code for f in baseline.violations}
    best_config, best_result = config, baseline
    for index in range(len(config.publishes())):
        if index in best_config.skip_messages:
            continue
        trial = replace(
            best_config,
            skip_messages=tuple(
                sorted(set(best_config.skip_messages) | {index})
            ),
        )
        trial_result = explore(trial)
        if (
            trial_result.counterexample_schedule is not None
            and {f.code for f in trial_result.violations} & target_codes
        ):
            best_config, best_result = trial, trial_result
    return best_config, best_result


def replay_schedule(
    config: ExploreConfig,
    schedule: Sequence[Sequence[Any]],
    trace: bool = True,
) -> Tuple[Any, List[Finding]]:
    """Re-execute a recorded schedule; returns (fabric, findings).

    Raises :class:`ScheduleDivergence` when the schedule no longer
    matches the reconstructed state (e.g. edited config).
    """
    ctx = _Context(config)
    run = _Run(ctx, trace=trace)
    for raw in schedule:
        key = tuple(raw)
        enabled = {t.key: t for t in run.enabled()}
        if key not in enabled:
            raise ScheduleDivergence(
                f"schedule step {key} not enabled "
                f"(enabled: {sorted(enabled)})"
            )
        run.execute(enabled[key])
    complete = ctx.complete_workload and not run.fabric.link_failures
    return run.fabric, check_terminal(run.fabric, complete=complete)


def implicated_messages(findings: Sequence[Finding]) -> List[int]:
    """Message ids named by ``msg N`` anchors (empty = none named)."""
    ids: Set[int] = set()
    for finding in findings:
        anchor = finding.anchor or ""
        if anchor.startswith("msg "):
            try:
                ids.add(int(anchor.split()[1]))
            except (IndexError, ValueError):
                continue
    return sorted(ids)


def render_counterexample_trace(fabric: Any, findings: Sequence[Finding]) -> str:
    """Render the implicated messages' journeys from a traced replay.

    Reuses the ``repro explain`` forensics machinery so a counterexample
    reads like any other ordering post-mortem.
    """
    from repro.obs.forensics import JourneyIndex, render_journey

    index = JourneyIndex(fabric.trace)
    msg_ids = implicated_messages(findings) or sorted(fabric.published)
    sections: List[str] = []
    for msg_id in msg_ids:
        journey = index.journey(msg_id)
        if journey is not None:
            sections.append(render_journey(journey))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# `repro check --explore` integration
# ---------------------------------------------------------------------------


#: budgeted smoke scenarios for the check runner / CI explore job
CHECK_SCENARIOS: Tuple[ExploreConfig, ...] = (
    ExploreConfig(groups=2, hosts=3, messages=1, seed=0,
                  max_schedules=400, max_depth=80),
    ExploreConfig(groups=3, hosts=4, messages=1, seed=1,
                  max_schedules=400, max_depth=120),
)


def run_explore_check(
    scenarios: Sequence[ExploreConfig] = CHECK_SCENARIOS,
) -> Tuple[List[Finding], int]:
    """Model-check the smoke scenarios; returns (findings, schedules)."""
    findings: List[Finding] = []
    schedules = 0
    for config in scenarios:
        result = explore(config)
        schedules += result.schedules
        findings.extend(
            Finding(
                code=f.code,
                message=f"{f.message} (in {config.label()})",
                severity=f.severity,
                anchor=f.anchor,
                tool=f.tool,
            )
            for f in result.violations
        )
    return findings, schedules


def explore_report(
    result: ExploreResult,
    counterexample: Optional[Dict[str, Any]] = None,
) -> str:
    """JSON report for the ``repro explore`` CLI."""
    payload: Dict[str, Any] = {
        "tool": "repro.explore",
        "version": 1,
        "config": result.config.to_dict(),
        "stats": result.stats(),
        "summary": {"violations": len(result.violations)},
        "findings": [f.to_dict() for f in result.violations],
        "counterexample": counterexample,
    }
    return json.dumps(payload, indent=2, sort_keys=False)
