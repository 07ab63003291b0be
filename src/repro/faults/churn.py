"""Deterministic membership churn composed with epoch-fenced switches.

The ROADMAP's churn-scale open item needs sustained join/leave traffic
*while the fabric is carrying messages* — exactly what the online
reconfiguration path in :mod:`repro.core.reconfigure` provides.  This
module supplies the missing pieces:

* :func:`random_churn` — a seeded join/leave arrival process.  Group
  popularity is Zipf (group ids are rank-ordered by
  :func:`repro.workloads.zipf.zipf_membership`, so group 0 is both the
  largest and the most churned), joins pick a deterministic non-member,
  leaves never shrink a group below ``min_size`` (so group ids are
  stable and the sequencing graph always stays buildable).
* :func:`execute_churn_campaign` — the end-to-end harness: one fabric
  per epoch, each switch performed **online** (epoch fences drain the
  in-flight traffic, surviving counters carry over), composed with the
  PR 4 fault-plan DSL so crashes, outages, and loss windows land in any
  epoch — including a permanent sequencing-node crash scheduled to land
  *mid-epoch-switch*, which the drain's bounded retry/backoff plus
  heartbeat-detector failover must heal.  Each epoch is audited with the
  RT30x runtime verifier; the cross-epoch RT32x invariants
  (:mod:`repro.check.churn`) audit the fences, counter continuity,
  joiner prefixes, and leaver drains.

The campaign runs on a single **campaign-absolute clock**: each epoch's
fabric starts at virtual time 0, and ``base`` (the absolute instant the
fabric started) converts between the two.  Fault actions and publish
ticks are scheduled in absolute time and re-scheduled onto each new
epoch's fabric; an action whose target did not survive the switch (its
node id left the placement) is skipped and recorded, and publish ticks
that fall inside a fence-drain window are deferred to the new epoch's
start (publishes pause during reconfiguration).  Crash *windows* are not
carried across a cutover: a timed crash expires with its epoch.

Everything derives from ``ChurnConfig.seed``; on the simulated backend a
fixed-seed campaign is byte-identical across runs (the report embeds a
``delivery_digest`` over every per-host delivery log for exactly that
comparison).  The live asyncio backend replays the same membership and
fault script under real timers; its delivery *orders* may differ run to
run, but the RT30x/RT32x invariants must still hold.
"""

import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.churn import EpochLog, collect_epoch_log, verify_churn
from repro.check.invariants import verify_run
from repro.core.reconfigure import (
    ReconfigurationError,
    atom_counters,
    group_local_counters,
    reconfigure,
)
from repro.experiments.common import ExperimentEnv
from repro.faults.detector import HeartbeatDetector
from repro.faults.failover import wire_failover
from repro.faults.plan import CrashNode, FaultAction, FaultPlan, random_plan
from repro.obs.forensics import JourneyIndex
from repro.obs.live import LiveMonitor
from repro.workloads.zipf import zipf_membership

__all__ = [
    "ChurnCampaignRun",
    "ChurnConfig",
    "ChurnEvent",
    "ChurnPlan",
    "execute_churn_campaign",
    "random_churn",
    "run_churn_campaign",
]

#: Synthetic finding codes (RT310 mirrors repro.faults.campaign).
NON_QUIESCENT_CODE = "RT310"
SWITCH_FAILED_CODE = "RT311"

#: Virtual ms after a switch begins at which the mid-switch crash lands —
#: late enough that the fences are on the wire, early enough that they
#: have not drained.
MID_SWITCH_CRASH_DELAY = 1.0


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: ``host`` joins or leaves ``group`` at ``at``."""

    at: float
    op: str  # "join" | "leave"
    group: int
    host: int

    def describe(self) -> Dict[str, Any]:
        return {"at": self.at, "op": self.op, "group": self.group, "host": self.host}


@dataclass
class ChurnPlan:
    """A seeded churn script: timed events plus the epoch-switch instants."""

    events: List[ChurnEvent] = field(default_factory=list)
    switch_times: List[float] = field(default_factory=list)

    def batches(self) -> List[Tuple[float, List[ChurnEvent]]]:
        """Events grouped by the switch that applies them, in time order.

        Every event belongs to the first switch at or after its time, so
        a batch is "the membership changes accumulated since the last
        epoch switch".
        """
        out: List[Tuple[float, List[ChurnEvent]]] = []
        remaining = sorted(self.events, key=lambda e: (e.at, e.group, e.host))
        for switch_at in self.switch_times:
            batch = [e for e in remaining if e.at <= switch_at]
            remaining = [e for e in remaining if e.at > switch_at]
            out.append((switch_at, batch))
        return out

    def to_dicts(self) -> Dict[str, Any]:
        return {
            "events": [e.describe() for e in self.events],
            "switch_times": list(self.switch_times),
        }


def _weighted_group(
    groups: List[int], rng: random.Random, exponent: float
) -> int:
    """Zipf-popular group choice: weight of group g is 1/(g+1)^exponent."""
    weights = [1.0 / float(g + 1) ** exponent for g in groups]
    total = sum(weights)
    target = rng.random() * total
    acc = 0.0
    for group, weight in zip(groups, weights):
        acc += weight
        if target < acc:
            return group
    return groups[-1]


def random_churn(
    snapshot: Dict[int, FrozenSet[int]],
    n_hosts: int,
    rng: random.Random,
    window: float,
    events: int = 50,
    switches: int = 5,
    exponent: float = 1.0,
    min_size: int = 2,
) -> ChurnPlan:
    """A seeded join/leave arrival process over ``snapshot``'s groups.

    ``switches`` epoch-switch instants are spread evenly over
    ``(0, window)``; every event lands before the last switch, so every
    change is eventually applied.  Joins pick a deterministic non-member
    host; leaves keep each group at ``min_size`` members or more.  The
    generator maintains a working copy of the membership, so the script
    is valid when applied in time order.
    """
    if switches < 1:
        return ChurnPlan(events=[], switch_times=[])
    switch_times = [
        window * (index + 1) / (switches + 1) for index in range(switches)
    ]
    groups = sorted(snapshot)
    working: Dict[int, Set[int]] = {g: set(m) for g, m in snapshot.items()}
    times = sorted(
        rng.random() * switch_times[-1] for _ in range(max(0, events))
    )
    script: List[ChurnEvent] = []
    for at in times:
        group = _weighted_group(groups, rng, exponent)
        members = working[group]
        want_join = rng.random() < 0.5
        non_members = sorted(set(range(n_hosts)) - members)
        can_join = bool(non_members)
        can_leave = len(members) > min_size
        if want_join and not can_join:
            want_join = False
        if not want_join and not can_leave:
            want_join = True
        if want_join and can_join:
            host = non_members[rng.randrange(len(non_members))]
            members.add(host)
            script.append(ChurnEvent(at=at, op="join", group=group, host=host))
        elif can_leave:
            candidates = sorted(members)
            host = candidates[rng.randrange(len(candidates))]
            members.discard(host)
            script.append(ChurnEvent(at=at, op="leave", group=group, host=host))
        # A group both full and at min_size cannot exist (n_hosts >
        # min_size), so one of the branches always applies.
    return ChurnPlan(events=script, switch_times=switch_times)


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of one seeded churn campaign (superset of chaos knobs)."""

    #: end hosts attached to the substrate
    hosts: int = 24
    #: Zipf-sized groups over those hosts
    groups: int = 8
    #: messages published, spread uniformly over ``[0, horizon]``
    events: int = 80
    #: join/leave events, Zipf-popular groups, spread before the last switch
    churn_events: int = 50
    #: online epoch switches, spread evenly over ``(0, horizon)``
    switches: int = 5
    #: master seed; every RNG in the run derives from it
    seed: int = 0
    #: traffic/fault/churn window in virtual milliseconds
    horizon: float = 400.0
    #: baseline Bernoulli loss on every channel
    loss_rate: float = 0.01
    #: base retransmit timeout (ms) before exponential backoff
    retransmit_timeout: float = 5.0
    #: heartbeat ping interval (ms)
    heartbeat_interval: float = 5.0
    #: missed heartbeat intervals tolerated before suspicion
    suspect_after: int = 3
    #: fault plan composition (see repro.faults.plan.random_plan)
    node_crashes: int = 1
    host_crashes: int = 1
    link_outages: int = 0
    loss_windows: int = 1
    delay_spikes: int = 1
    #: the first node crash is permanent (resolved only by failover)
    permanent_crash: bool = True
    #: additionally crash the busiest node 1 ms into the middle switch's
    #: fence drain — the self-healing repair path under test
    mid_switch_crash: bool = True
    #: state-transfer downtime charged to each failover (ms)
    transfer_delay: float = 1.0
    #: audit RT306 causal order per epoch
    check_causal: bool = True
    #: per-attempt event budget for each online fence drain
    drain_max_events: int = 500_000
    #: bounded retries when a fault races a drain or graph proof
    repair_attempts: int = 3
    #: base virtual-time backoff (ms) between drain attempts
    repair_backoff: float = 25.0
    #: runtime backend: "sim" (deterministic) or "asyncio" (live timers)
    backend: str = "sim"
    #: virtual-ms -> wall-seconds factor for the asyncio backend
    time_scale: float = 0.0005

    def validate(self) -> None:
        if self.hosts < 4:
            raise ValueError(f"hosts must be >= 4, got {self.hosts}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        if self.churn_events < 0:
            raise ValueError(
                f"churn_events must be >= 0, got {self.churn_events}"
            )
        if self.switches < 0:
            raise ValueError(f"switches must be >= 0, got {self.switches}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.backend not in ("sim", "asyncio"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class ChurnCampaignRun:
    """One executed churn campaign: report plus the live per-epoch state."""

    report: Dict[str, Any]
    #: every epoch's fabric, in epoch order (traces intact for forensics)
    fabrics: List[Any]
    epoch_logs: List[EpochLog]
    plan: FaultPlan
    churn: ChurnPlan
    #: the streaming monitor, when the campaign ran with one attached
    monitor: Optional[LiveMonitor] = None


def run_churn_campaign(
    config: ChurnConfig, live_monitor: bool = False
) -> Dict[str, Any]:
    """Run one seeded churn campaign; return its JSON-able report."""
    return execute_churn_campaign(config, live_monitor=live_monitor).report


def _make_runtime(config: ChurnConfig) -> Optional[Any]:
    if config.backend == "sim":
        return None
    from repro.runtime.asyncio_backend import AsyncioTransport

    return AsyncioTransport(
        seed=config.seed,
        loss_rate=config.loss_rate,
        time_scale=config.time_scale,
    )


def _busiest_node(fabric: Any) -> int:
    """The sequencing node hosting the most atoms (smallest id on ties)."""
    best = -1
    best_count = -1
    for node_id in sorted(fabric.node_processes):
        count = len(fabric.node_processes[node_id].atom_runtimes)
        if count > best_count:
            best, best_count = node_id, count
    return best


def _guarded_apply(
    action: FaultAction, fabric: Any, skipped: List[Dict[str, Any]]
) -> None:
    """Apply a fault; skip (and record) targets lost to an epoch switch."""
    try:
        action.apply(fabric)
    except KeyError:
        skipped.append(action.describe())


def _schedule_faults(
    plan: FaultPlan,
    fabric: Any,
    base: float,
    skipped: List[Dict[str, Any]],
) -> None:
    """Schedule the plan's not-yet-fired actions on an epoch's fabric."""
    for action in plan.sorted_actions():
        local = action.at - base
        if local < 0:
            continue  # fired (or expired) in an earlier epoch
        fabric.sim.schedule_at(local, _guarded_apply, action, fabric, skipped)


def _publish_tick(fabric: Any, rng: random.Random) -> None:
    """Publish one message, drawn from the *current* epoch's membership."""
    groups = sorted(fabric.graph.groups())
    group = groups[rng.randrange(len(groups))]
    members = sorted(fabric.graph.members(group))
    sender = members[rng.randrange(len(members))]
    fabric.publish(sender, group, None)


def _schedule_publishes(
    fabric: Any,
    base: float,
    times: List[float],
    start: int,
    bound: Optional[float],
    rng: random.Random,
) -> int:
    """Schedule publish ticks with absolute time below ``bound``.

    Ticks that fell inside the previous fence drain (absolute time before
    this epoch's ``base``) fire at local 0 — deferred, not dropped.
    Returns the index of the first unscheduled tick.
    """
    index = start
    while index < len(times) and (bound is None or times[index] < bound):
        local = max(times[index] - base, 0.0)
        fabric.sim.schedule_at(local, _publish_tick, fabric, rng)
        index += 1
    return index


def _finding_dicts(findings: List[Any], epoch: int) -> List[Dict[str, Any]]:
    return [
        {
            "code": f.code,
            "message": f.message,
            "severity": f.severity,
            "anchor": f.anchor,
            "tool": f.tool,
            "epoch": epoch,
        }
        for f in findings
    ]


def _delivery_digest(logs: List[EpochLog]) -> str:
    """SHA-256 over every per-host delivery log, for determinism smokes."""
    digest = hashlib.sha256()
    for log in sorted(logs, key=lambda entry: entry.epoch):
        for host in sorted(log.deliveries):
            for record in log.deliveries[host]:
                digest.update(
                    f"{log.epoch}:{host}:{record.msg_id}:"
                    f"{record.stamp.group}:{record.stamp.group_seq};".encode()
                )
    return digest.hexdigest()


def execute_churn_campaign(
    config: ChurnConfig, live_monitor: bool = False
) -> ChurnCampaignRun:
    """Run one seeded churn campaign; return report *and* live state.

    ``live_monitor`` attaches a :class:`repro.obs.live.LiveMonitor` to
    each epoch's fabric (re-attached across every online switch, so the
    fence-drain traffic streams through it too).  The monitor's streamed
    audit view is compared with the per-epoch fabric audit inside
    :func:`close_epoch`; the report's ``live_monitor`` block records the
    per-epoch agreement and the cumulative alert feed.
    """
    config.validate()
    env = ExperimentEnv(n_hosts=config.hosts, seed=config.seed)
    snapshot = zipf_membership(
        config.hosts, config.groups, rng=random.Random(config.seed + 1)
    )
    membership = env.membership_from(snapshot)
    churn = random_churn(
        snapshot,
        config.hosts,
        rng=random.Random(config.seed + 5),
        window=config.horizon,
        events=config.churn_events,
        switches=config.switches,
    )
    fabric = env.build_fabric(
        membership,
        seed=config.seed,
        loss_rate=config.loss_rate,
        retransmit_timeout=config.retransmit_timeout,
        runtime=_make_runtime(config),
    )
    plan = random_plan(
        fabric,
        rng=random.Random(config.seed + 3),
        window=config.horizon,
        node_crashes=config.node_crashes,
        host_crashes=config.host_crashes,
        link_outages=config.link_outages,
        loss_windows=config.loss_windows,
        delay_spikes=config.delay_spikes,
        permanent_crash=config.permanent_crash,
    )
    publish_times = sorted(
        config.horizon * rng.random()
        for rng in [random.Random(config.seed + 4)]
        for _ in range(config.events)
    )
    pub_rng = random.Random(config.seed + 6)
    skipped: List[Dict[str, Any]] = []
    mid_switch_crash: Optional[Dict[str, Any]] = None
    mid_index = len(churn.switch_times) // 2 if churn.switch_times else -1

    batches = churn.batches()
    fabrics: List[Any] = [fabric]
    logs: List[EpochLog] = []
    findings: List[Dict[str, Any]] = []
    epoch_summaries: List[Dict[str, Any]] = []
    failover_total = 0
    base = 0.0
    next_bound = batches[0][0] if batches else None
    monitor: Optional[LiveMonitor] = None
    epoch_agreement: List[Dict[str, Any]] = []
    if live_monitor:
        monitor = LiveMonitor(node=f"churn:{config.seed}")
        monitor.attach(fabric)
    pub_cursor = _schedule_publishes(
        fabric, base, publish_times, 0, next_bound, pub_rng
    )
    _schedule_faults(plan, fabric, base, skipped)
    detector = HeartbeatDetector(
        fabric,
        interval=config.heartbeat_interval,
        suspect_after=config.suspect_after,
    )
    wire_failover(
        fabric,
        detector,
        rng=random.Random(config.seed + 2),
        transfer_delay=config.transfer_delay,
    )
    detector.start()
    start_counters: Tuple[Dict[int, int], Dict[Any, int]] = ({}, {})
    working: Dict[int, Set[int]] = {g: set(m) for g, m in snapshot.items()}

    def close_epoch(ending: Any, online_switch: bool) -> None:
        nonlocal failover_total
        logs.append(
            collect_epoch_log(
                ending, start_counters[0], start_counters[1], online_switch
            )
        )
        epoch_findings = verify_run(
            ending, complete=True, causal=config.check_causal
        )
        if monitor is not None:
            # Per-epoch agreement: the monitor's streamed view must yield
            # the exact findings the fabric audit just produced.
            live_dicts = _finding_dicts(
                monitor.final_findings(
                    complete=True, causal=config.check_causal
                ),
                ending.epoch,
            )
            epoch_agreement.append(
                {
                    "epoch": ending.epoch,
                    "agrees": live_dicts
                    == _finding_dicts(epoch_findings, ending.epoch),
                    "live_findings": len(live_dicts),
                }
            )
        findings.extend(_finding_dicts(epoch_findings, ending.epoch))
        failover_total += len(ending.failovers)
        stats = ending.epoch_switch_stats or {}
        epoch_summaries.append(
            {
                "epoch": ending.epoch,
                "groups": len(ending.graph.groups()),
                "published": len(ending.published),
                "delivered": sum(
                    len(p.delivered) for p in ending.host_processes.values()
                ),
                "fences": len(ending.fences),
                "failovers": len(ending.failovers),
                "retransmissions": ending.retransmissions,
                "link_failures": len(ending.link_failures),
                "switch": {
                    "online": stats.get("online"),
                    "drain_events": stats.get("drain_events"),
                    "drain_attempts": stats.get("drain_attempts"),
                    "graph_repairs": stats.get("graph_repairs"),
                }
                if stats
                else None,
            }
        )

    aborted = False
    for index, (switch_at, ops) in enumerate(batches):
        fabric.run(until=max(switch_at - base, 0.0))
        if config.mid_switch_crash and index == mid_index:
            # A permanent crash of the busiest node, composed through the
            # fault DSL, landing while the fences are on the wire: the
            # switch must self-heal via detection + failover + replay.
            node_id = _busiest_node(fabric)
            crash = CrashNode(
                at=base + fabric.sim.now + MID_SWITCH_CRASH_DELAY,
                node_id=node_id,
                duration=None,
            )
            plan.add(crash)
            mid_switch_crash = crash.describe()
            fabric.sim.schedule_at(
                fabric.sim.now + MID_SWITCH_CRASH_DELAY,
                _guarded_apply,
                crash,
                fabric,
                skipped,
            )
        for event in ops:
            if event.op == "join":
                working[event.group].add(event.host)
            else:
                working[event.group].discard(event.host)
        next_membership = env.membership_from(
            {g: frozenset(m) for g, m in working.items()}
        )
        old = fabric
        try:
            fabric = reconfigure(
                old,
                next_membership,
                seed=config.seed + 1000 + index,
                online=True,
                drain_max_events=config.drain_max_events,
                repair_attempts=config.repair_attempts,
                repair_backoff=config.repair_backoff,
            )
        except ReconfigurationError as exc:
            detector.stop()
            findings.append(
                {
                    "code": SWITCH_FAILED_CODE,
                    "message": f"epoch switch {index + 1} failed: {exc}",
                    "severity": "error",
                    "anchor": f"switch {index + 1}",
                    "tool": "runtime-verify",
                    "epoch": old.epoch,
                }
            )
            close_epoch(old, online_switch=bool(old.fence_expected))
            aborted = True
            break
        detector.stop()
        fabrics.append(fabric)
        # The old epoch ends here; audit it and roll the clock forward.
        base += old.sim.now
        close_epoch(old, online_switch=bool(old.fence_expected))
        if monitor is not None:
            # Follow the bus into the new epoch: fresh streaming window
            # and audit view, cumulative alerts and latency retained.
            monitor.attach(fabric)
        start_counters = (group_local_counters(fabric), atom_counters(fabric))
        next_bound = (
            batches[index + 1][0] if index + 1 < len(batches) else None
        )
        pub_cursor = _schedule_publishes(
            fabric, base, publish_times, pub_cursor, next_bound, pub_rng
        )
        _schedule_faults(plan, fabric, base, skipped)
        detector = HeartbeatDetector(
            fabric,
            interval=config.heartbeat_interval,
            suspect_after=config.suspect_after,
        )
        wire_failover(
            fabric,
            detector,
            rng=random.Random(config.seed + 2 + fabric.epoch),
            transfer_delay=config.transfer_delay,
        )
        detector.start()

    quiescent = True
    if not aborted:
        # Final epoch: run out the horizon, give the detector its slowest
        # legal detection plus hand-off, then drain to quiescence.
        detect_until = (
            max(config.horizon - base, 0.0)
            + (config.suspect_after + 4) * config.heartbeat_interval
            + 2 * config.transfer_delay
            + 50.0
        )
        fabric.run(until=detect_until)
        detector.stop()
        fabric.run(max_events=config.drain_max_events)
        quiescent = fabric.sim.pending == 0
        if not quiescent:
            findings.append(
                {
                    "code": NON_QUIESCENT_CODE,
                    "message": (
                        f"simulation still had {fabric.sim.pending} live "
                        f"events after the {config.drain_max_events}-event "
                        "drain budget"
                    ),
                    "severity": "error",
                    "anchor": "simulator",
                    "tool": "runtime-verify",
                    "epoch": fabric.epoch,
                }
            )
        close_epoch(fabric, online_switch=False)
    # reconfigure() closed each superseded epoch's runtime; the current
    # fabric's is still live (asyncio tasks + loop under that backend).
    fabric.runtime.close()
    findings.extend(
        {
            "code": f.code,
            "message": f.message,
            "severity": f.severity,
            "anchor": f.anchor,
            "tool": f.tool,
            "epoch": None,
        }
        for f in verify_churn(logs)
    )

    applied = sum(len(ops) for _, ops in batches)
    report: Dict[str, Any] = {
        "config": asdict(config),
        "churn": churn.to_dicts(),
        "churn_applied": applied,
        "epochs": epoch_summaries,
        "faults": plan.to_dicts(),
        "mid_switch_crash": mid_switch_crash,
        "fault_skips": skipped,
        "published": sum(len(f.published) for f in fabrics),
        "delivered": sum(
            len(p.delivered)
            for f in fabrics
            for p in f.host_processes.values()
        ),
        "failovers": failover_total,
        "events": sum(f.sim.events_executed for f in fabrics),
        "quiescent": quiescent,
        "delivery_digest": _delivery_digest(logs),
        "findings": findings,
        "ok": not findings,
    }
    if monitor is not None:
        monitor.detach()
        report["live_monitor"] = {
            "alerts": [alert.to_dict() for alert in monitor.alerts],
            "alerts_dropped": monitor.alerts_dropped,
            "violations": monitor.violations,
            "warnings": monitor.warnings,
            "epoch_agreement": epoch_agreement,
            "agrees_with_audit": all(
                entry["agrees"] for entry in epoch_agreement
            ),
            "phases": monitor.latency.summary(),
        }
    if findings:
        # Explain the failure: stall attribution for every epoch that
        # produced findings (fence drains show up as cause=epoch_switch).
        bad_epochs = sorted(
            {f["epoch"] for f in findings if f["epoch"] is not None}
        )
        forensics: Dict[str, Any] = {}
        for f in fabrics:
            if f.epoch in bad_epochs and f.trace.enabled:
                forensics[str(f.epoch)] = JourneyIndex(f.trace).stall_report(
                    threshold=0.0
                )
        if forensics:
            report["forensics"] = forensics
    return ChurnCampaignRun(
        report=report,
        fabrics=fabrics,
        epoch_logs=logs,
        plan=plan,
        churn=churn,
        monitor=monitor,
    )
