"""The five simulator workloads and the machinery every workload shares.

A workload is measured in *rounds*.  A round is a fixed batch of
publishes, and a run is a fixed number of rounds: ``Spec.rounds`` at the
nominal ``--seconds`` (``NOMINAL_SECONDS``, the ``run_seconds`` of
``BENCHMARK.json``), scaled in proportion for any other value.  The
region is sized in work and not by the clock on purpose: rounds slow
down as a run retains more (trace records, delivery logs, routing rows)
and churn epochs differ from one another, so only runs that do identical
work compare, and every exact-repeat figure (events, deliveries, digest,
...) covers the whole run.

The deployment is pinned: topology, host attachment, membership, the
graph/placement seeds and the churn script all derive from
``TESTBED_SEED``.  ``--seed`` draws the traffic (destination group and
sender of every publish).  See README.md, "What the seed varies".
"""

import hashlib
import random
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, FrozenSet, List, Optional

from repro.check.invariants import verify_run
from repro.core.protocol import OrderingFabric
from repro.core.reconfigure import reconfigure
from repro.experiments.common import ExperimentEnv
from repro.faults.churn import random_churn
from repro.obs.live import LiveMonitor
from repro.obs.registry import MetricsRegistry
from repro.pubsub.membership import GroupMembership
from repro.workloads.zipf import zipf_membership

from spans import Tracer

TESTBED_SEED = 0
SIM_HOSTS, SIM_GROUPS = 128, 32
#: ``--seconds`` at which a run does exactly ``Spec.rounds`` rounds
NOMINAL_SECONDS = 8
#: in a traced run every third round runs with the wrappers taken off, in
#: the same process, as the reference ``trace.overhead_ratio`` divides by
REFERENCE_EVERY = 3
#: setups timed per run (the first one is the one the run measures on)
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Spec:
    """One workload: why it exists and how one round of it is shaped."""

    name: str
    why: str
    loop: str
    #: publishes per round at scale 1
    round_msgs: int
    #: rounds per run at ``NOMINAL_SECONDS`` (7-10 s on the seed commit)
    rounds: int
    #: virtual ms between publishes of a round (None = one instant)
    gap_ms: Optional[float] = None
    loss_rate: float = 0.0
    observed: bool = False
    churn: bool = False


SIM_SPECS = (
    Spec(
        "sim_steady",
        "open loop; the fast path: hold-back <= 3 deep and the link layer off, so "
        "hold-back, link and reconfiguration changes must show no change here",
        "open loop in virtual time, 1 publish / 20 virtual ms",
        round_msgs=1000, rounds=16, gap_ms=20.0,
    ),
    Spec(
        "sim_burst",
        "open loop; the drain path: 4,000 publishes at one instant push hold-back "
        "~300 deep, so DeliveryState rescans dominate: core.delivery used the other way",
        "open loop in virtual time, 4,000 publishes at one virtual instant",
        round_msgs=4000, rounds=4,
    ),
    Spec(
        "sim_lossy",
        "open loop; the reliable link layer: 5% loss doubles events per message "
        "through acks, retransmit timers, backoff and duplicate suppression",
        "open loop in virtual time, 1 publish / 2 virtual ms, loss_rate 0.05",
        round_msgs=500, rounds=16, gap_ms=2.0, loss_rate=0.05,
    ),
    Spec(
        "sim_observed",
        "open loop; the price of observability: steady traffic with trace, metrics "
        "registry, LiveMonitor and a verify_run audit inside the timed region",
        "open loop in virtual time, 1 publish / 2 virtual ms, then one audit",
        round_msgs=500, rounds=8, gap_ms=2.0, observed=True,
    ),
    Spec(
        "sim_churn",
        "open loop; the epoch switch: sequencing graph, placement, graph_verify and "
        "the fence drain do their work here and almost none elsewhere",
        "open loop in virtual time, 100 publishes / 400 virtual ms per epoch, "
        "cut with the tail in flight, 4 join/leave ops, then reconfigure()",
        round_msgs=100, rounds=14, gap_ms=4.0, churn=True,
    ),
)

#: virtual ms of traffic per churn epoch before the cut
EPOCH_MS = 400.0
CHURN_OPS = 4


@dataclass
class Round:
    msgs: int
    wall: float
    #: whether the span wrappers were installed while it ran
    traced: bool
    #: scheduler callbacks executed during the round
    events: int = 0


@dataclass
class Outcome:
    """Everything one run of one workload measured and checked."""

    spec: Spec
    attempted: int = 0
    failed: int = 0
    #: correctness problems that are not tied to one message
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: exact-repeat record of the whole run (empty for live workloads)
    exact: Dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: human-readable facts about the run (rounds, region length, ...)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# Shared helpers (used by the live workloads too)
# ---------------------------------------------------------------------------


def span(tracer: Optional[Tracer], name: str) -> ContextManager[Any]:
    """A span around one of the benchmark's own calls (no-op untraced)."""
    return tracer.span(name) if tracer is not None else nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def planned_rounds(spec: Spec, seconds: float) -> int:
    return max(2, round(spec.rounds * seconds / NOMINAL_SECONDS))


def trace_round(tracer: Optional[Tracer], index: int) -> bool:
    """Switch tracing for round ``index``; True when the round is traced.

    Traced and reference rounds interleave (T R T T R T ...) because
    rounds are not alike: they slow down as the run retains more.
    """
    if tracer is None:
        return False
    if index % REFERENCE_EVERY == 1:
        tracer.uninstall()
    else:
        tracer.install()
    return tracer.installed


class Draws:
    """Seeded (group, sender) choices: the traffic ``--seed`` stands for.

    Groups come off a shuffled deck of all groups, reshuffled when it runs
    out, so every group gets the same share of the publishes (uniform, as
    if drawn at random) while equal-sized rounds do equal work: group
    sizes span 2 to 96 members, and plain random draws would move a
    100-publish round's deliveries by +-17 % between seeds.  Senders are
    drawn uniformly from the destination group's members.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._deck: List[int] = []

    def next(self, members: Dict[int, List[int]]) -> "tuple[int, int]":
        if not self._deck:
            self._deck = sorted(members)
            self._rng.shuffle(self._deck)
        group = self._deck.pop()
        return group, self._rng.choice(members[group])


class Completion:
    """Wall-clock publish-to-last-member latency through ``on_deliver``.

    The payload of every timed publish is its index here; a message is
    complete when the hook has seen it at every member of its group.
    """

    def __init__(self) -> None:
        self.due: List[float] = []
        self.done: List[float] = []
        self._left: List[int] = []
        self.on_complete: Optional[Callable[[int], None]] = None

    def expect(self, due: float, members: int) -> int:
        self.due.append(due)
        self.done.append(0.0)
        self._left.append(members)
        return len(self.due) - 1

    def hook(self, host_id: int, record: Any) -> None:
        index = record.payload
        if index.__class__ is not int:
            return  # warm-up traffic carries no index
        left = self._left[index] - 1
        self._left[index] = left
        if left == 0:
            self.done[index] = perf_counter()
            if self.on_complete is not None:
                self.on_complete(index)

    def latencies_ms(self, first: int = 0, last: Optional[int] = None) -> List[float]:
        """Sorted latencies of the completed messages ``first..last``."""
        pairs = zip(self.due[first:last], self.done[first:last])
        return sorted((done - due) * 1e3 for due, done in pairs if done)


def audit_deliveries(
    fabrics: List[OrderingFabric], outcome: Outcome
) -> None:
    """Exactly-once at every member, agreed group order, nothing pending.

    A message fails when a member misses it, gets it twice, a non-member
    gets it, or two members of its group hold it at different positions
    of that group's sequence.  Each fabric is one epoch and is checked
    against its own epoch's member sets.
    """
    failed: set = set()
    for fabric in fabrics:
        group_of = {m: msg.group for m, msg in fabric.published.items()}
        members = {g: fabric.graph.members(g) for g in fabric.graph.groups()}
        seen: Dict[int, int] = {}
        order: Dict[int, Dict[int, List[int]]] = {}
        for host in fabric.hosts:
            host_id = host.host_id
            for record in fabric.delivered(host_id):
                msg_id = record.msg_id
                group = group_of.get(msg_id)
                if group is None or host_id not in members[group]:
                    failed.add(msg_id)
                    continue
                seen[msg_id] = seen.get(msg_id, 0) + 1
                order.setdefault(group, {}).setdefault(host_id, []).append(msg_id)
        for msg_id, group in group_of.items():
            if seen.get(msg_id, 0) != len(members[group]):
                failed.add(msg_id)
        for group, by_host in order.items():
            sequences = list(by_host.values())
            for other in sequences[1:]:
                if other != sequences[0]:
                    failed.update(
                        a for a, b in zip(sequences[0], other) if a != b
                    )
                    failed.update(set(sequences[0]) ^ set(other))
        pending = fabric.pending_messages()
        if pending:
            outcome.problems.append(f"hosts {sorted(pending)} still buffer messages")
        if fabric.link_failures:
            outcome.problems.append(f"{len(fabric.link_failures)} link failures")
        outcome.attempted += len(group_of)
    outcome.failed += len(failed)


def summarize_rounds(
    outcome: Outcome,
    rounds: List[Round],
    completion: Completion,
    extra_wall: float = 0.0,
    fixed_rate: bool = False,
) -> None:
    """Every end-to-end rate and latency: the median over the untraced
    rounds of that round's own figure.

    A slow spell of the machine then has to cover half the rounds before
    it moves a number, and the rounds a gen-2 collection lands in do not
    set the tail.  ``extra_wall`` is timed work that belongs to the
    region but to no single round (the sim_observed audit); it is spread
    evenly.  ``fixed_rate`` says the offered load sets a round's wall
    (an open loop in real time), so tracing overhead shows as latency.
    """
    share = extra_wall / len(rounds)
    rates, p50s, p95s = [], [], []
    costs: Dict[bool, List[float]] = {True: [], False: []}
    first = 0
    for entry in rounds:
        latencies = completion.latencies_ms(first, first + entry.msgs)
        first += entry.msgs
        p50 = percentile(latencies, 0.50)
        costs[entry.traced].append(p50 if fixed_rate else entry.wall / entry.msgs)
        if entry.traced:
            continue
        rates.append(entry.msgs / (entry.wall + share))
        p50s.append(p50)
        p95s.append(percentile(latencies, 0.95))
    outcome.end_to_end["msgs_per_s"] = statistics.median(rates)
    outcome.end_to_end["deliver_p50_ms"] = statistics.median(p50s)
    outcome.end_to_end["deliver_p95_ms"] = statistics.median(p95s)
    latencies = completion.latencies_ms()
    outcome.detail.update(
        rounds=len(rounds),
        round_msgs_per_s=[round(rate, 1) for rate in rates],
        region_s=sum(r.wall for r in rounds) + extra_wall,
        samples=len(latencies),
        deliver_p99_ms=percentile(latencies, 0.99),
        deliver_max_ms=latencies[-1],
    )
    if costs[True]:
        outcome.detail["trace_overhead_ratio"] = statistics.median(
            costs[True]
        ) / statistics.median(costs[False])


# ---------------------------------------------------------------------------
# The simulated deployment
# ---------------------------------------------------------------------------


class SimBed:
    """The pinned paper-scale deployment, warmed up and ready to publish."""

    def __init__(self, spec: Spec, tracer: Optional[Tracer] = None):
        self.env = ExperimentEnv(
            n_hosts=SIM_HOSTS, seed=TESTBED_SEED, paper_scale=True
        )
        snapshot = zipf_membership(
            SIM_HOSTS, SIM_GROUPS, random.Random(TESTBED_SEED)
        )
        with span(tracer, "pubsub.membership_build"):
            self.membership: GroupMembership = self.env.membership_from(snapshot)
        self.fabric, self.monitor = self.build_fabric(
            trace=spec.observed, loss_rate=spec.loss_rate, observed=spec.observed
        )
        #: fabrics of finished epochs, oldest first (sim_churn)
        self.retired: List[OrderingFabric] = []
        self.switch_ms: List[float] = []
        self.switch_stats: List[Dict[str, Any]] = []

    def build_fabric(
        self, observed: bool = False, **kwargs: Any
    ) -> "tuple[OrderingFabric, Optional[LiveMonitor]]":
        """A fabric over the pinned substrate, warmed to full speed.

        ``observed`` adds what sim_observed pays for besides the trace: a
        metrics registry and an attached ``LiveMonitor``.  The warm-up
        publishes one message per (member, group), each run to
        quiescence: routing runs Dijkstra lazily and channels are created
        on first use, and that cost belongs to set-up.
        """
        monitor = None
        if observed:
            kwargs["registry"] = MetricsRegistry()
        fabric = self.env.build_fabric(self.membership, seed=TESTBED_SEED, **kwargs)
        if observed:
            monitor = LiveMonitor(registry=kwargs["registry"], retain_audit=False)
            monitor.attach(fabric)
        self.env.run_one_message_per_membership(fabric, isolate=True)
        return fabric, monitor

    @property
    def fabrics(self) -> List[OrderingFabric]:
        return self.retired + [self.fabric]


class Traffic:
    """The seed's publishes, sent through one bed and timed to completion."""

    def __init__(self, bed: SimBed, seed: int, completion: Completion):
        self.bed = bed
        self.draws = Draws(seed)
        self.completion = completion
        self.members: Dict[int, List[int]] = {}
        self.adopt(bed.fabric)

    def adopt(self, fabric: OrderingFabric) -> None:
        """Follow ``fabric``'s membership and observe its deliveries."""
        snapshot: Dict[int, FrozenSet[int]] = fabric.membership.snapshot()
        self.members = {g: sorted(hosts) for g, hosts in snapshot.items()}
        fabric.on_deliver = self.completion.hook

    def publish_one(self) -> None:
        group, sender = self.draws.next(self.members)
        index = self.completion.expect(perf_counter(), len(self.members[group]))
        self.bed.fabric.publish(sender, group, index)

    def round(self, count: int, gap_ms: Optional[float]) -> None:
        """Publish ``count`` messages and run them to quiescence."""
        fabric = self.bed.fabric
        if gap_ms is None:
            for _ in range(count):
                self.publish_one()
        else:
            base = fabric.sim.now
            for i in range(count):
                fabric.sim.schedule_at(base + gap_ms * i, self.publish_one)
        fabric.run()

    def churn_epoch(self, count: int, gap_ms: float, epoch: int) -> None:
        """One epoch: traffic cut with its tail in flight, then a switch."""
        bed = self.bed
        fabric = bed.fabric
        base = fabric.sim.now
        for i in range(count):
            fabric.sim.schedule_at(base + gap_ms * i, self.publish_one)
        fabric.run(until=base + EPOCH_MS)
        script = random_churn(
            bed.membership.snapshot(),
            SIM_HOSTS,
            random.Random(TESTBED_SEED * 1000 + epoch),
            window=EPOCH_MS,
            events=CHURN_OPS,
            switches=1,
        )
        for event in script.events:
            change = bed.membership.join if event.op == "join" else bed.membership.leave
            change(event.group, event.host)
        started = perf_counter()
        successor = reconfigure(
            fabric, bed.membership, seed=TESTBED_SEED + epoch + 1
        )
        bed.switch_ms.append((perf_counter() - started) * 1e3)
        bed.switch_stats.append(dict(fabric.epoch_switch_stats or {}))
        bed.retired.append(fabric)
        bed.fabric = successor
        self.adopt(successor)


def exact_record(bed: SimBed) -> Dict[str, Any]:
    """The figures that must be a pure function of the seed."""
    fabrics = bed.fabrics
    digest = hashlib.sha256()
    latencies: List[float] = []
    deliveries = 0
    for host in fabrics[0].hosts:
        digest.update(f"h{host.host_id}:".encode())
        for fabric in fabrics:
            records = fabric.delivered(host.host_id)
            deliveries += len(records)
            digest.update(",".join(str(r.msg_id) for r in records).encode())
            digest.update(b";")
            latencies.extend(r.time - r.publish_time for r in records)
    return {
        "events": sum(f.sim.events_executed for f in fabrics),
        "deliveries": deliveries,
        "retransmissions": sum(f.retransmissions for f in fabrics),
        "drain_events": sum(s.get("drain_events", 0) for s in bed.switch_stats),
        "holdback_high_water": max(
            p.delivery.buffered_high_water
            for f in fabrics
            for p in f.host_processes.values()
        ),
        "virtual_latency_p50_ms": statistics.median(latencies),
        "digest": digest.hexdigest(),
    }


def run_sim(
    spec: Spec,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    scale: float = 1.0,
) -> "tuple[Outcome, SimBed, List[Round]]":
    """Set up, run the rounds ``seconds`` asks for, check every delivery."""
    outcome = Outcome(spec)
    started = perf_counter()
    bed = SimBed(spec, tracer)
    setups = [perf_counter() - started]

    completion = Completion()
    traffic = Traffic(bed, seed, completion)
    round_msgs = max(2, int(spec.round_msgs * scale))
    rounds: List[Round] = []

    def events() -> int:
        return sum(f.sim.events_executed for f in bed.fabrics)

    def one_round() -> None:
        traced = trace_round(tracer, len(rounds))
        before = events()
        began = perf_counter()
        if spec.churn:
            traffic.churn_epoch(round_msgs, spec.gap_ms or 0.0, len(rounds))
        else:
            traffic.round(round_msgs, spec.gap_ms)
        wall = perf_counter() - began
        rounds.append(Round(round_msgs, wall, traced, events() - before))

    for _ in range(planned_rounds(spec, seconds)):
        one_round()
    if tracer is not None:
        tracer.uninstall()

    audit_wall = 0.0
    if spec.observed:
        # sim_observed's audit is part of its timed region.
        assert bed.monitor is not None
        began = perf_counter()
        with span(tracer, "verify_run"):
            findings = verify_run(bed.fabric, complete=True, causal=True)
        audit_wall = perf_counter() - began
        outcome.problems.extend(f"{f.code}: {f.message}" for f in findings[:5])
        if bed.monitor.violations:
            outcome.problems.append(
                f"{bed.monitor.violations} live-monitor violations"
            )
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    outcome.exact = exact_record(bed)
    audit_deliveries(bed.fabrics, outcome)
    summarize_rounds(outcome, rounds, completion, extra_wall=audit_wall)
    if bed.switch_ms:
        outcome.detail["switch_p50_ms"] = statistics.median(bed.switch_ms)
    if tracer is None:
        # Set-up again on fresh deployments, discarded: one build is one
        # sample, and a later change that moves work into set-up must show.
        while len(setups) < SETUP_REPEATS:
            started = perf_counter()
            SimBed(spec)
            setups.append(perf_counter() - started)
        outcome.end_to_end["setup_s"] = statistics.median(setups)
    return outcome, bed, rounds
