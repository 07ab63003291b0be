"""Seeded campaigns: traffic + faults + failover + churn + verification.

One driver runs every campaign over one timeline drawn before the run:
the publishes (each by a member of its group, the paper's Section 3.1
precondition for causal order, so RT306 is checked), a fault plan (by
default :func:`~repro.faults.plan.random_plan`, whose first node crash
is permanent: only failover resolves it) and a churn plan whose batches
each take effect at an online, epoch-fenced switch.  Without churn
(``churn_events == 0``) there is no switch: one epoch, the chaos report
(failovers with detection latency, detector, retransmissions and drops
by cause).  With churn it is the churn report (the churn script, each
epoch with its switch's drain cost, a digest of every delivery log).

Each epoch's fabric is wired alike (monitor, mutation, its publishes, the
faults not yet fired, a heartbeat detector wired to failover) and audited
by :func:`repro.check.verify_run` when it ends; a churn run also by the
cross-epoch RT32x invariants.  The clock is campaign-absolute: ``base``
is the instant the current epoch's fabric started.  A failing run's
report carries ordering forensics.  Everything derives from the seed:
on the simulated backend a campaign is byte-identical across runs.
"""

import bisect
import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.check.churn import EpochLog, collect_epoch_log, verify_churn
from repro.check.explore import MUTATIONS
from repro.check.findings import Finding
from repro.check.invariants import verify_run
from repro.core.reconfigure import (
    DEFAULT_DRAIN_MAX_EVENTS,
    ReconfigurationError,
    atom_counters,
    group_local_counters,
    reconfigure,
)
from repro.experiments.common import ExperimentEnv
from repro.faults.churn import ChurnPlan, random_churn
from repro.faults.detector import HeartbeatDetector
from repro.faults.failover import wire_failover
from repro.faults.plan import CrashNode, FaultAction, FaultPlan, random_plan
from repro.obs.forensics import JourneyIndex
from repro.obs.live import LiveMonitor
from repro.workloads.zipf import zipf_membership

__all__ = ["CampaignConfig", "CampaignRun", "execute_campaign", "run_campaign"]

#: Synthetic finding codes: a run that never quiesced; a failed switch.
NON_QUIESCENT_CODE = "RT310"
SWITCH_FAILED_CODE = "RT311"

#: Base retransmit timeout (ms) before exponential backoff.
RETRANSMIT_TIMEOUT = 5.0

#: Virtual ms after a switch begins at which the mid-switch crash lands —
#: late enough that the fences are on the wire, early enough that they
#: have not drained.
MID_SWITCH_CRASH_DELAY = 1.0

Snapshot = Dict[int, FrozenSet[int]]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one seeded campaign run."""

    #: end hosts attached to the (small) transit-stub substrate
    hosts: int = 24
    #: Zipf-sized groups over those hosts
    groups: int = 8
    #: messages published, spread uniformly over ``[0, horizon]``
    events: int = 60
    #: join/leave events over Zipf-popular groups, before the last switch;
    #: 0 means no churn: one epoch and the chaos report
    churn_events: int = 0
    #: online epoch switches, spread evenly over ``(0, horizon)``
    switches: int = 5
    #: master seed; every RNG in the run derives from it
    seed: int = 0
    #: traffic/fault/churn window in virtual milliseconds
    horizon: float = 400.0
    #: baseline Bernoulli loss on every channel (enables the reliable layer)
    loss_rate: float = 0.01
    #: per-packet retransmission budget (None = the fabric default);
    #: tiny budgets make abandonment — and RT302 findings — reachable
    max_retransmits: Optional[int] = None
    #: heartbeat ping interval (ms)
    heartbeat_interval: float = 5.0
    #: missed heartbeat intervals tolerated before suspicion
    suspect_after: int = 3
    #: fault plan composition (see repro.faults.plan.random_plan)
    node_crashes: int = 1
    host_crashes: int = 1
    link_outages: int = 1
    loss_windows: int = 1
    delay_spikes: int = 1
    #: the first node crash is permanent (resolved only by failover)
    permanent_crash: bool = True
    #: with churn, also crash the busiest node 1 ms into the middle
    #: switch's fence drain — the self-healing repair path under test
    mid_switch_crash: bool = True
    #: state-transfer downtime charged to each failover (ms)
    transfer_delay: float = 1.0
    #: runtime backend: "sim" (deterministic) or "asyncio" (live timers)
    backend: str = "sim"
    #: virtual-ms -> wall-seconds factor for the asyncio backend
    time_scale: float = 0.0005

    def validate(self) -> None:
        # A group needs a publisher and a receiver; random_churn keeps
        # each group at two members (its min_size) and joins a third.
        fewest = 3 if self.churn_events else 2
        for name, value, low in (
            ("hosts", self.hosts, fewest),
            ("groups", self.groups, 1),
            ("events", self.events, 0),
            ("churn_events", self.churn_events, 0),
            ("switches", self.switches, 0),
        ):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.backend not in ("sim", "asyncio"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class CampaignRun:
    """One executed campaign: the report plus the live machinery behind it.

    Every epoch's fabric keeps its full trace, delivery states and
    failover records, so post-mortem tooling (``repro explain``) can
    rebuild forensics without re-running the campaign.
    """

    report: Dict[str, Any]
    #: every epoch's fabric, in epoch order (one without churn)
    fabrics: List[Any]
    epoch_logs: List[EpochLog]
    #: each epoch's heartbeat detector, in epoch order
    detectors: List[HeartbeatDetector]
    plan: FaultPlan
    churn: ChurnPlan
    #: the streaming monitor, when the campaign ran with one attached
    monitor: Optional[LiveMonitor] = None


def run_campaign(
    config: CampaignConfig,
    plan: Optional[FaultPlan] = None,
    live_monitor: bool = False,
    mutate: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one seeded campaign; return its JSON-able report."""
    return execute_campaign(config, plan, live_monitor, mutate).report


def _epoch_snapshots(snapshot: Snapshot, churn: ChurnPlan) -> List[Snapshot]:
    """The membership of every epoch: each switch applies its batch."""
    working = {g: set(m) for g, m in snapshot.items()}
    snapshots = [snapshot]
    for _switch_at, ops in churn.batches():
        for event in ops:
            if event.op == "join":
                working[event.group].add(event.host)
            else:
                working[event.group].discard(event.host)
        snapshots.append({g: frozenset(m) for g, m in working.items()})
    return snapshots


def _publish_timeline(
    config: CampaignConfig, snapshots: List[Snapshot], churn: ChurnPlan
) -> List[Tuple[float, int, int]]:
    """Seeded ``(time, sender, group)`` triples, sorted by publish time.

    Without churn one stream draws group, sender and time together.  With
    churn the times come first, and each publish's group and sender are
    drawn from a second stream against the membership in force at its
    time: the snapshot plus every batch switched in at or before it.
    """
    rng = random.Random(config.seed + 4)
    if not config.churn_events:
        groups = sorted(snapshots[0])
        schedule = []
        for _ in range(config.events):
            group = groups[rng.randrange(len(groups))]
            members = sorted(snapshots[0][group])
            sender = members[rng.randrange(len(members))]
            schedule.append((config.horizon * rng.random(), sender, group))
        return sorted(schedule)
    times = sorted(config.horizon * rng.random() for _ in range(config.events))
    pick = random.Random(config.seed + 6)
    schedule = []
    for time in times:
        membership = snapshots[bisect.bisect_right(churn.switch_times, time)]
        groups = sorted(membership)
        group = groups[pick.randrange(len(groups))]
        members = sorted(membership[group])
        schedule.append((time, members[pick.randrange(len(members))], group))
    return schedule


def _guarded_apply(action: FaultAction, fabric: Any, skipped: List[Dict[str, Any]]) -> None:
    """Apply a fault; skip (and record) a target lost to an epoch switch."""
    try:
        action.apply(fabric)
    except KeyError:
        if fabric.epoch == 0:
            raise  # no switch yet: the plan names a target that never existed
        skipped.append(action.describe())


def execute_campaign(
    config: CampaignConfig,
    plan: Optional[FaultPlan] = None,
    live_monitor: bool = False,
    mutate: Optional[str] = None,
) -> CampaignRun:
    """Run one seeded campaign; return report *and* live state.

    ``plan`` overrides the seeded random fault plan (tests use this to
    inject hand-built compositions); everything else still derives from
    ``config.seed``.

    ``live_monitor`` attaches a :class:`repro.obs.live.LiveMonitor` to
    each epoch's fabric before its traffic.  The monitor keeps an audit
    view built purely from the stream; each epoch's streamed findings are
    compared with that epoch's fabric audit, and the report's
    ``live_monitor`` block carries the verdict (``agrees_with_audit``),
    the alert feed and per-phase latency percentiles.

    ``mutate`` applies a protocol mutation from
    :data:`repro.check.explore.MUTATIONS` (e.g. ``"dup-delivery"``) to
    each epoch's fabric before its traffic — the negative control proving
    the monitors actually fire (used by the CI ``live-monitor`` job).
    """
    config.validate()
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r} (have {sorted(MUTATIONS)})")
    env = ExperimentEnv(n_hosts=config.hosts, seed=config.seed)
    snapshot = zipf_membership(config.hosts, config.groups, rng=random.Random(config.seed + 1))
    churned = bool(config.churn_events)
    churn = ChurnPlan()
    if churned:
        churn = random_churn(
            snapshot,
            config.hosts,
            rng=random.Random(config.seed + 5),
            window=config.horizon,
            events=config.churn_events,
            switches=config.switches,
        )
    snapshots = _epoch_snapshots(snapshot, churn)
    runtime = None
    if config.backend == "asyncio":
        from repro.runtime.asyncio_backend import AsyncioTransport

        runtime = AsyncioTransport(
            seed=config.seed, loss_rate=config.loss_rate, time_scale=config.time_scale
        )
    fabric = env.build_fabric(
        env.membership_from(snapshot),
        seed=config.seed,
        loss_rate=config.loss_rate,
        retransmit_timeout=RETRANSMIT_TIMEOUT,
        max_retransmits=config.max_retransmits,
        runtime=runtime,
    )
    if plan is None:
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
    plan.validate()
    publishes = _publish_timeline(config, snapshots, churn)
    monitor: Optional[LiveMonitor] = None
    if live_monitor:
        monitor = LiveMonitor(node=f"{'churn' if churned else 'chaos'}:{config.seed}")

    fabrics: List[Any] = [fabric]
    detectors: List[HeartbeatDetector] = []
    logs: List[EpochLog] = []
    audits: List[List[Finding]] = []
    live_audits: List[List[Finding]] = []
    skipped: List[Dict[str, Any]] = []
    counters: Tuple[Dict[int, int], Dict[Any, int]] = ({}, {})
    base = 0.0
    cursor = 0

    def open_epoch(fabric: Any, until: Optional[float]) -> None:
        """Wire an epoch's fabric and schedule its share of the timeline."""
        nonlocal cursor
        if monitor is not None:
            monitor.attach(fabric)
        if mutate is not None:
            MUTATIONS[mutate](fabric)
        while cursor < len(publishes) and (until is None or publishes[cursor][0] < until):
            time, sender, group = publishes[cursor]
            local = max(time - base, 0.0)  # deferred past a fence drain
            fabric.sim.schedule_at(local, fabric.publish, sender, group, None)
            cursor += 1
        for action in plan.sorted_actions():
            if action.at >= base:  # not fired (or expired) in an earlier epoch
                fabric.sim.schedule_at(action.at - base, _guarded_apply, action, fabric, skipped)
        detector = HeartbeatDetector(
            fabric, interval=config.heartbeat_interval, suspect_after=config.suspect_after
        )
        wire_failover(
            fabric,
            detector,
            rng=random.Random(config.seed + 2 + fabric.epoch),
            transfer_delay=config.transfer_delay,
        )
        detector.start()
        detectors.append(detector)

    def close_epoch(ending: Any) -> None:
        logs.append(collect_epoch_log(ending, *counters, bool(ending.fence_expected)))
        audits.append(verify_run(ending, complete=True, causal=True))
        if monitor is not None:
            live_audits.append(monitor.final_findings(complete=True, causal=True))

    batches = churn.batches()
    open_epoch(fabric, batches[0][0] if batches else None)
    mid_switch_crash: Optional[Dict[str, Any]] = None
    ending_finding: Optional[Finding] = None
    for index, (switch_at, _ops) in enumerate(batches):
        fabric.run(until=max(switch_at - base, 0.0))
        if config.mid_switch_crash and index == len(batches) // 2:
            # A permanent crash of the busiest node (smallest id on ties),
            # landing while the fences are on the wire: the switch must
            # self-heal via detection + failover + replay.
            nodes = fabric.node_processes
            crash = CrashNode(
                at=base + fabric.sim.now + MID_SWITCH_CRASH_DELAY,
                node_id=max(sorted(nodes), key=lambda n: len(nodes[n].atom_runtimes)),
                duration=None,
            )
            plan.add(crash)
            mid_switch_crash = crash.describe()
            fabric.sim.schedule_at(
                fabric.sim.now + MID_SWITCH_CRASH_DELAY, _guarded_apply, crash, fabric, skipped
            )
        try:
            successor = reconfigure(
                fabric,
                env.membership_from(snapshots[index + 1]),
                seed=config.seed + 1000 + index,
                online=True,
            )
        except ReconfigurationError as exc:
            detectors[-1].stop()
            ending_finding = Finding(
                code=SWITCH_FAILED_CODE,
                message=f"epoch switch {index + 1} failed: {exc}",
                anchor=f"switch {index + 1}",
                tool="runtime-verify",
            )
            break
        detectors[-1].stop()
        fabrics.append(successor)
        # The old epoch ends here; audit it and roll the clock forward.
        base += fabric.sim.now
        close_epoch(fabric)
        fabric = successor
        counters = (group_local_counters(fabric), atom_counters(fabric))
        open_epoch(fabric, batches[index + 1][0] if index + 1 < len(batches) else None)

    quiescent = True
    if ending_finding is None:
        # Final epoch: run out the horizon, give the detector its slowest
        # legal detection plus hand-off, then drain to quiescence.
        detect_until = (
            max(config.horizon - base, 0.0)
            + (config.suspect_after + 4) * config.heartbeat_interval
            + 2 * config.transfer_delay
            + 50.0
        )
        fabric.run(until=detect_until)
        detectors[-1].stop()
        fabric.run(max_events=DEFAULT_DRAIN_MAX_EVENTS)
        quiescent = fabric.sim.pending == 0
        if not quiescent:
            ending_finding = Finding(
                code=NON_QUIESCENT_CODE,
                message=(
                    f"simulation still had {fabric.sim.pending} live events "
                    f"after the {DEFAULT_DRAIN_MAX_EVENTS}-event drain budget"
                ),
                anchor="simulator",
                tool="runtime-verify",
            )
    close_epoch(fabric)
    # reconfigure() closed each superseded epoch's runtime; the current
    # fabric's is still live (asyncio tasks + loop under that backend).
    fabric.runtime.close()

    run = CampaignRun({}, fabrics, logs, detectors, plan, churn, monitor)
    extra = [ending_finding] if ending_finding is not None else []
    if churned:
        # A churn report's findings name their epoch; the synthetic one
        # leads the epoch it ended, the cross-epoch ones come last.
        per_epoch = audits[:-1] + [extra + audits[-1]]
        findings = [
            dict(_finding_dict(f), epoch=ending.epoch)
            for ending, epoch_findings in zip(fabrics, per_epoch)
            for f in epoch_findings
        ]
        findings += [dict(_finding_dict(f), epoch=None) for f in verify_churn(logs)]
        run.report = _churn_report(config, run, quiescent, mid_switch_crash, skipped)
    else:
        findings = [_finding_dict(f) for f in audits[0] + extra]
        run.report = _chaos_report(config, run, quiescent)
    run.report["findings"] = findings
    run.report["ok"] = not findings
    if mutate is not None:
        run.report["mutation"] = mutate
    if monitor is not None:
        monitor.detach()
        run.report["live_monitor"] = _live_block(monitor, fabrics, audits, live_audits, churned)
    if findings:
        run.report.update(_forensics(fabrics, findings, churned))
    return run


def _finding_dict(f: Finding) -> Dict[str, Any]:
    return {key: getattr(f, key) for key in ("code", "message", "severity", "anchor", "tool")}


def _delivered(fabric: Any) -> int:
    return sum(len(p.delivered) for p in fabric.host_processes.values())


def _chaos_report(config: CampaignConfig, run: CampaignRun, quiescent: bool) -> Dict[str, Any]:
    """The one-epoch report: failover, detector and link-layer detail."""
    fabric, detector = run.fabrics[0], run.detectors[0]
    # Detection latency: the suspicion a failover answered minus the last
    # crash of its node at or before it; none for a suspicion before any
    # crash (a healthy node suspected) or a failover no suspicion caused.
    crashes: Dict[int, List[float]] = {}
    for action in run.plan.sorted_actions():
        if isinstance(action, CrashNode):
            crashes.setdefault(action.node_id, []).append(action.at)
    suspected = {(time, node_id) for time, node_id, _silence in detector.suspicions}

    def detection_latency(time: float, node_id: int) -> Optional[float]:
        before = [at for at in crashes.get(node_id, ()) if at <= time]
        if (time, node_id) not in suspected or not before:
            return None
        return time - max(before)

    return {
        "config": asdict(config),
        "published": len(fabric.published),
        "delivered": _delivered(fabric),
        "faults": run.plan.to_dicts(),
        "failovers": [
            {
                "time": record.time,
                "node_id": record.node_id,
                "old_machine": record.old_machine,
                "new_machine": record.new_machine,
                "replayed": record.replayed,
                "detection_latency_ms": detection_latency(record.time, record.node_id),
            }
            for record in fabric.failovers
        ],
        "detector": {
            "heartbeats_sent": detector.heartbeats_sent,
            "pongs_received": detector.pongs_received,
            "suspicions": [
                {"time": time, "node_id": node_id, "silence_ms": silence}
                for time, node_id, silence in detector.suspicions
            ],
        },
        "retransmissions": {
            "total": fabric.retransmissions,
            "by_cause": dict(sorted(fabric.retransmissions_by_cause.items())),
        },
        "link_failures": len(fabric.link_failures),
        "drops": {
            "loss": fabric.network.total_loss_drops(),
            "outage": fabric.network.total_outage_drops(),
        },
        "channels_retired": fabric.network.channels_retired,
        "events": fabric.sim.events_executed,
        "quiescent": quiescent,
    }


def _churn_report(
    config: CampaignConfig,
    run: CampaignRun,
    quiescent: bool,
    mid_switch_crash: Optional[Dict[str, Any]],
    skipped: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """The multi-epoch report: the churn script and each switch's cost."""
    digest = hashlib.sha256()  # over every per-host delivery log
    for log in sorted(run.epoch_logs, key=lambda entry: entry.epoch):
        for host in sorted(log.deliveries):
            for record in log.deliveries[host]:
                digest.update(
                    f"{log.epoch}:{host}:{record.msg_id}:"
                    f"{record.stamp.group}:{record.stamp.group_seq};".encode()
                )
    return {
        "config": asdict(config),
        "churn": run.churn.to_dicts(),
        "churn_applied": sum(len(ops) for _, ops in run.churn.batches()),
        "epochs": [_epoch_summary(f) for f in run.fabrics],
        "faults": run.plan.to_dicts(),
        "mid_switch_crash": mid_switch_crash,
        "fault_skips": skipped,
        "published": sum(len(f.published) for f in run.fabrics),
        "delivered": sum(_delivered(f) for f in run.fabrics),
        "failovers": sum(len(f.failovers) for f in run.fabrics),
        "events": sum(f.sim.events_executed for f in run.fabrics),
        "quiescent": quiescent,
        "delivery_digest": digest.hexdigest(),
    }


def _epoch_summary(fabric: Any) -> Dict[str, Any]:
    stats = fabric.epoch_switch_stats
    return {
        "epoch": fabric.epoch,
        "groups": len(fabric.graph.groups()),
        "published": len(fabric.published),
        "delivered": _delivered(fabric),
        "fences": len(fabric.fences),
        "failovers": len(fabric.failovers),
        "retransmissions": fabric.retransmissions,
        "link_failures": len(fabric.link_failures),
        "switch": {
            key: stats.get(key)
            for key in ("online", "drain_events", "drain_attempts", "graph_repairs")
        }
        if stats
        else None,
    }


def _live_block(
    monitor: LiveMonitor,
    fabrics: List[Any],
    audits: List[List[Finding]],
    live_audits: List[List[Finding]],
    churned: bool,
) -> Dict[str, Any]:
    """The streaming monitor's feed, and per epoch whether its streamed
    view yields exactly the fabric audit's findings (RT310/RT311 are
    simulator state, not delivery-log properties, so they are left out)."""
    live_dicts = [[_finding_dict(f) for f in live] for live in live_audits]
    agreement = [
        {
            "epoch": fabric.epoch,
            "agrees": live == [_finding_dict(f) for f in audit],
            "live_findings": len(live),
        }
        for fabric, audit, live in zip(fabrics, audits, live_dicts)
    ]
    block: Dict[str, Any] = {
        "alerts": [alert.to_dict() for alert in monitor.alerts],
        "alerts_dropped": monitor.alerts_dropped,
        "violations": monitor.violations,
        "warnings": monitor.warnings,
    }
    if churned:
        block["epoch_agreement"] = agreement
    else:
        block["findings"] = live_dicts[0]
    block["agrees_with_audit"] = all(entry["agrees"] for entry in agreement)
    block["phases"] = monitor.latency.summary()
    return block


def _forensics(fabrics: List[Any], findings: List[Dict[str, Any]], churned: bool) -> Dict[str, Any]:
    """Explain a failure in the report itself: full stall attribution
    (threshold 0 = every buffer event) so CI logs name the blocking
    (atom, seq) gaps and their causes without a reproduction run.  A
    churn report keys it by each epoch with findings (fence drains show
    up as ``cause=epoch_switch``)."""
    if not churned:
        if not fabrics[0].trace.enabled:
            return {}
        return {"forensics": JourneyIndex(fabrics[0].trace).stall_report(threshold=0.0)}
    bad = {f["epoch"] for f in findings if f["epoch"] is not None}
    by_epoch = {
        str(f.epoch): JourneyIndex(f.trace).stall_report(threshold=0.0)
        for f in fabrics
        if f.epoch in bad and f.trace.enabled
    }
    return {"forensics": by_epoch} if by_epoch else {}
