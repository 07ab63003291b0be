"""Seeded chaos campaigns: traffic + faults + failover + verification.

One campaign run builds a fabric over a fresh substrate, wires the
heartbeat detector to automatic failover, draws a random fault plan
(always including a permanent sequencing-node crash by default — the
fault only failover can resolve), publishes a seeded workload spread
across the fault window, runs the simulation to quiescence, and audits
the outcome with :func:`repro.check.verify_run`.

Everything derives from ``ChaosConfig.seed``, so a failing campaign
replays exactly; the JSON-able report records the plan, every failover
with its detection latency, retransmissions by cause, drops by cause,
and the invariant findings — ``ok`` is true iff the run quiesced with
zero findings.  The ``repro chaos`` CLI and the CI chaos job are thin
wrappers over :func:`run_campaign`.

Publishers are always members of the group they publish to, which is
the paper's Section 3.1 precondition for the causal-order guarantee —
and what lets the campaign check RT306 rather than skip it.

A failing campaign (any finding, including non-quiescence) attaches an
ordering-forensics block to its report: the full stall attribution from
:class:`repro.obs.forensics.JourneyIndex`, so CI logs explain *which*
blocking ``(atom, seq)`` gaps starved receivers and why, without rerun.
:func:`execute_campaign` additionally hands back the live fabric so
callers (the ``repro explain`` CLI) can interrogate the trace directly.
"""

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.check.invariants import verify_run
from repro.experiments.common import ExperimentEnv
from repro.faults.detector import HeartbeatDetector
from repro.faults.failover import wire_failover
from repro.faults.plan import FaultPlan, random_plan
from repro.obs.forensics import JourneyIndex
from repro.obs.live import LiveMonitor
from repro.workloads.zipf import zipf_membership

__all__ = ["CampaignRun", "ChaosConfig", "execute_campaign", "run_campaign"]

#: Hard ceiling on drain events after the traffic horizon — a run that
#: needs more is reported as non-quiescent instead of hanging CI.
DRAIN_MAX_EVENTS = 2_000_000

#: Synthetic finding code for a run that failed to quiesce in budget.
NON_QUIESCENT_CODE = "RT310"


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one seeded chaos campaign run."""

    #: end hosts attached to the (small) transit-stub substrate
    hosts: int = 24
    #: Zipf-sized groups over those hosts
    groups: int = 8
    #: messages published, spread uniformly over ``[0, horizon]``
    events: int = 60
    #: master seed; every RNG in the run derives from it
    seed: int = 0
    #: traffic/fault window in virtual milliseconds
    horizon: float = 400.0
    #: baseline Bernoulli loss on every channel (enables the reliable layer)
    loss_rate: float = 0.01
    #: base retransmit timeout (ms) before exponential backoff
    retransmit_timeout: float = 5.0
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
    #: state-transfer downtime charged to each failover (ms)
    transfer_delay: float = 1.0
    #: audit RT306 causal order (publishers are group members, so valid)
    check_causal: bool = True

    def validate(self) -> None:
        if self.hosts < 2:
            raise ValueError(f"hosts must be >= 2, got {self.hosts}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def _publish_schedule(
    config: ChaosConfig, groups: List[int], members_of: Dict[int, List[int]]
) -> List[Any]:
    """Seeded (time, sender, group) triples, sorted by publish time."""
    rng = random.Random(config.seed + 4)
    schedule = []
    for _ in range(config.events):
        group = groups[rng.randrange(len(groups))]
        members = members_of[group]
        sender = members[rng.randrange(len(members))]
        schedule.append((config.horizon * rng.random(), sender, group))
    schedule.sort()
    return schedule


def _detection_latencies(
    fabric: Any, detector: HeartbeatDetector, plan: FaultPlan
) -> Dict[int, float]:
    """Suspicion time minus crash time, per failed-over crashed node."""
    crash_at: Dict[int, float] = {}
    for action in plan.sorted_actions():
        described = action.describe()
        if described["kind"] == "crash_node":
            node_id = described["node_id"]
            if node_id not in crash_at:
                crash_at[node_id] = described["at"]
    latencies: Dict[int, float] = {}
    for time, node_id, _silence in detector.suspicions:
        if node_id in crash_at and node_id not in latencies:
            latencies[node_id] = time - crash_at[node_id]
    return latencies


@dataclass
class CampaignRun:
    """One executed campaign: the report plus the live machinery behind it.

    ``fabric`` still holds the full trace, delivery states, and failover
    records, so post-mortem tooling (``repro explain``) can rebuild
    forensics without re-running the campaign.
    """

    report: Dict[str, Any]
    fabric: Any
    detector: HeartbeatDetector
    plan: FaultPlan
    #: the streaming monitor, when the campaign ran with one attached
    monitor: Optional[LiveMonitor] = None


def run_campaign(
    config: ChaosConfig,
    plan: Optional[FaultPlan] = None,
    live_monitor: bool = False,
    mutate: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one seeded chaos campaign; return its JSON-able report.

    ``plan`` overrides the seeded random fault plan (tests use this to
    inject hand-built compositions); everything else still derives from
    ``config.seed``.
    """
    return execute_campaign(
        config, plan, live_monitor=live_monitor, mutate=mutate
    ).report


def execute_campaign(
    config: ChaosConfig,
    plan: Optional[FaultPlan] = None,
    live_monitor: bool = False,
    mutate: Optional[str] = None,
) -> CampaignRun:
    """Run one seeded chaos campaign; return report *and* live fabric.

    ``live_monitor`` attaches a :class:`repro.obs.live.LiveMonitor` to the
    fabric's trace before any traffic runs; the report then carries a
    ``live_monitor`` block with the streaming alert feed, per-phase
    latency percentiles, and — because the monitor retains an audit view
    built purely from the stream — an ``agrees_with_audit`` bit asserting
    its post-hoc findings are identical to the fabric audit's.

    ``mutate`` applies a protocol mutation from
    :data:`repro.check.explore.MUTATIONS` (e.g. ``"dup-delivery"``)
    before traffic — the negative control proving the monitors actually
    fire (used by the CI ``live-monitor`` job).
    """
    config.validate()
    env = ExperimentEnv(n_hosts=config.hosts, seed=config.seed)
    snapshot = zipf_membership(
        config.hosts, config.groups, rng=random.Random(config.seed + 1)
    )
    membership = env.membership_from(snapshot)
    fabric = env.build_fabric(
        membership,
        seed=config.seed,
        loss_rate=config.loss_rate,
        retransmit_timeout=config.retransmit_timeout,
        max_retransmits=config.max_retransmits,
    )

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
    plan.apply(fabric)

    monitor: Optional[LiveMonitor] = None
    if live_monitor:
        monitor = LiveMonitor(node=f"chaos:{config.seed}")
        monitor.attach(fabric)
    if mutate is not None:
        from repro.check.explore import MUTATIONS

        if mutate not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutate!r} (have {sorted(MUTATIONS)})"
            )
        MUTATIONS[mutate](fabric)

    groups = sorted(membership.groups())
    members_of = {g: sorted(membership.members(g)) for g in groups}
    for time, sender, group in _publish_schedule(config, groups, members_of):
        fabric.sim.schedule_at(time, fabric.publish, sender, group, None)

    detector.start()

    # Phase 1: traffic + faults + detection.  The window extends past the
    # horizon far enough for the slowest legal detection (full threshold
    # plus one ping round) and the failover hand-off to complete.
    detect_until = (
        config.horizon
        + (config.suspect_after + 4) * config.heartbeat_interval
        + 2 * config.transfer_delay
        + 50.0
    )
    events = fabric.run(until=detect_until)
    # Phase 2: stop the heartbeat loop (otherwise the simulation never
    # runs dry) and drain retransmissions, replays, and deliveries.
    detector.stop()
    events += fabric.run(max_events=DRAIN_MAX_EVENTS)
    quiescent = fabric.sim.pending == 0

    findings = verify_run(fabric, complete=True, causal=config.check_causal)
    audit_dicts = _finding_dicts(findings)
    finding_dicts = list(audit_dicts)
    if not quiescent:
        finding_dicts.append(
            {
                "code": NON_QUIESCENT_CODE,
                "message": (
                    f"simulation still had {fabric.sim.pending} live events "
                    f"after the {DRAIN_MAX_EVENTS}-event drain budget"
                ),
                "severity": "error",
                "anchor": "simulator",
                "tool": "runtime-verify",
            }
        )

    latencies = _detection_latencies(fabric, detector, plan)
    failovers = [
        {
            "time": record.time,
            "node_id": record.node_id,
            "old_machine": record.old_machine,
            "new_machine": record.new_machine,
            "replayed": record.replayed,
            "detection_latency_ms": latencies.get(record.node_id),
        }
        for record in fabric.failovers
    ]

    delivered = sum(
        len(process.delivered) for process in fabric.host_processes.values()
    )
    report = {
        "config": asdict(config),
        "published": len(fabric.published),
        "delivered": delivered,
        "faults": plan.to_dicts(),
        "failovers": failovers,
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
            "by_cause": {
                cause: fabric.retransmissions_by_cause[cause]
                for cause in sorted(fabric.retransmissions_by_cause)
            },
        },
        "link_failures": len(fabric.link_failures),
        "drops": {
            "loss": fabric.network.total_loss_drops(),
            "outage": fabric.network.total_outage_drops(),
        },
        "channels_retired": fabric.network.channels_retired,
        "events": events,
        "quiescent": quiescent,
        "findings": finding_dicts,
        "ok": not finding_dicts,
    }
    if mutate is not None:
        report["mutation"] = mutate
    if monitor is not None:
        monitor.detach()
        live_dicts = _finding_dicts(
            monitor.final_findings(complete=True, causal=config.check_causal)
        )
        report["live_monitor"] = {
            "alerts": [alert.to_dict() for alert in monitor.alerts],
            "alerts_dropped": monitor.alerts_dropped,
            "violations": monitor.violations,
            "warnings": monitor.warnings,
            "findings": live_dicts,
            # The streamed audit view must reproduce the fabric audit's
            # verdicts exactly (RT310 non-quiescence is simulator state,
            # not a delivery-log property, so it is excluded).
            "agrees_with_audit": live_dicts == audit_dicts,
            "phases": monitor.latency.summary(),
        }
    if finding_dicts and fabric.trace.enabled:
        # Explain the failure in the report itself: full stall attribution
        # (threshold 0 = every buffer event) so CI logs name the blocking
        # (atom, seq) gaps and their causes without a reproduction run.
        report["forensics"] = JourneyIndex(fabric.trace).stall_report(
            threshold=0.0
        )
    return CampaignRun(
        report=report,
        fabric=fabric,
        detector=detector,
        plan=plan,
        monitor=monitor,
    )


def _finding_dicts(findings: List[Any]) -> List[Dict[str, Any]]:
    """Project findings to the report's JSON shape (shared by both audits)."""
    return [
        {
            "code": f.code,
            "message": f.message,
            "severity": f.severity,
            "anchor": f.anchor,
            "tool": f.tool,
        }
        for f in findings
    ]
