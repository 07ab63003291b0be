"""Per-layer metric names and how each is read off a traced run.

``PER_LAYER`` is the single list of per-layer metrics: ``BENCHMARK.json``
carries the same names, units and directions (the self-check test
compares them).  A metric whose layer the workload never enters reads 0:
no calls were made, so there is no time to report.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.protocol import OrderingFabric

from spans import SpanStats, Tracer
from workloads import Outcome, Round, percentile

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better) — layers are the repo's modules
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("topology.gtitm_ms", "ms", LOWER),
    ("topology.routing_init_ms", "ms", LOWER),
    ("topology.attach_hosts_ms", "ms", LOWER),
    ("topology.routing_cold_query_us", "us", LOWER),
    ("topology.routing_warm_query_us", "us", LOWER),
    ("topology.dijkstra_runs", "count", LOWER),
    ("pubsub.membership_build_ms", "ms", LOWER),
    ("core.overlaps.ms", "ms", LOWER),
    ("core.overlaps.pairs", "count", LOWER),
    ("core.sequencing_graph.build_ms", "ms", LOWER),
    ("core.sequencing_graph.validate_ms", "ms", LOWER),
    ("core.sequencing_graph.atoms", "count", LOWER),
    ("core.sequencing_graph.add_group_ms_p50", "ms", LOWER),
    ("core.sequencing_graph.remove_group_ms_p50", "ms", LOWER),
    ("core.placement.place_ms", "ms", LOWER),
    ("core.placement.nodes", "count", LOWER),
    ("core.protocol.fabric_init_ms", "ms", LOWER),
    ("core.protocol.publish_us", "us", LOWER),
    ("core.protocol.node_receive_self_us", "us", LOWER),
    ("core.protocol.host_receive_self_us", "us", LOWER),
    ("core.protocol.retransmissions", "count", LOWER),
    ("core.protocol.acks_sent", "count", LOWER),
    ("core.protocol.link_failures", "count", LOWER),
    ("core.protocol.link_useful_ratio", "ratio", HIGHER),
    ("core.protocol.link_overhead_ratio", "ratio", LOWER),
    ("core.atoms.process_us", "us", LOWER),
    ("core.atoms.visits", "count", LOWER),
    ("core.atoms.stamps", "count", LOWER),
    ("core.atoms.pass_through_ratio", "ratio", LOWER),
    ("core.delivery.on_receive_us", "us", LOWER),
    ("core.delivery.receives", "count", LOWER),
    ("core.delivery.buffered_ratio", "ratio", LOWER),
    ("core.delivery.holdback_high_water", "count", LOWER),
    ("core.delivery.replay_inorder_us", "us", LOWER),
    ("core.delivery.replay_shuffled_us", "us", LOWER),
    ("core.reconfigure.drain_ms", "ms", LOWER),
    ("core.reconfigure.derive_ms", "ms", LOWER),
    ("core.reconfigure.rebuild_ms", "ms", LOWER),
    ("core.reconfigure.verify_ms", "ms", LOWER),
    ("core.reconfigure.drain_events_p50", "count", LOWER),
    ("core.reconfigure.fences", "count", LOWER),
    ("core.reconfigure.drain_attempts", "count", LOWER),
    ("switch_p50_ms", "ms", LOWER),
    ("sim.events", "count", LOWER),
    ("sim.us_per_event", "us", LOWER),
    ("sim.dispatch_self_us", "us", LOWER),
    ("sim.bare_dispatch_us", "us", LOWER),
    ("sim.network.send_us", "us", LOWER),
    ("sim.network.sends", "count", LOWER),
    ("sim.network.drops", "count", LOWER),
    ("sim.virtual_latency_p50_ms", "ms", LOWER),
    ("runtime.asyncio.events", "count", LOWER),
    ("runtime.asyncio.us_per_event", "us", LOWER),
    ("runtime.asyncio.timer_lag_ms_p50", "ms", LOWER),
    ("runtime.service.health_rtt_us_p50", "us", LOWER),
    ("runtime.service.publish_ack_us_p50", "us", LOWER),
    ("runtime.service.drain_ms", "ms", LOWER),
    ("runtime.service.requests", "count", LOWER),
    ("obs.overhead_ratio", "ratio", LOWER),
    ("obs.trace_only_ratio", "ratio", LOWER),
    ("obs.trace_records", "count", LOWER),
    ("obs.trace_record_us", "us", LOWER),
    ("obs.monitor_us_per_record", "us", LOWER),
    ("obs.latency_tracker_us_per_record", "us", LOWER),
    ("obs.monitor_warnings", "count", LOWER),
    ("check.verify_run_ms", "ms", LOWER),
    ("check.verify_certificate_ms", "ms", LOWER),
    ("check.explore_schedules_per_s", "1/s", HIGHER),
    ("gc.pause_ms_max", "ms", LOWER),
    ("gc.collections_gen2", "count", LOWER),
    ("deliver_p99_ms", "ms", LOWER),
    ("deliver_max_ms", "ms", LOWER),
    ("gen.late_ms_p99", "ms", LOWER),
    ("trace.overhead_ratio", "ratio", LOWER),
)

#: metric -> (span name, "mean" | "self" | "p50", scale to the unit)
_FROM_SPANS: Dict[str, Tuple[str, str, float]] = {
    "topology.gtitm_ms": ("generate_transit_stub", "mean", 1e3),
    "topology.routing_init_ms": ("RoutingTable.__init__", "mean", 1e3),
    "topology.attach_hosts_ms": ("attach_hosts", "mean", 1e3),
    "pubsub.membership_build_ms": ("pubsub.membership_build", "mean", 1e3),
    "core.overlaps.ms": ("double_overlaps", "mean", 1e3),
    "core.sequencing_graph.build_ms": ("SequencingGraph.build", "mean", 1e3),
    "core.sequencing_graph.validate_ms": ("SequencingGraph.validate", "mean", 1e3),
    "core.sequencing_graph.add_group_ms_p50": ("SequencingGraph.add_group", "p50", 1e3),
    "core.sequencing_graph.remove_group_ms_p50": (
        "SequencingGraph.remove_group", "p50", 1e3,
    ),
    "core.placement.place_ms": ("place", "mean", 1e3),
    "core.protocol.fabric_init_ms": ("OrderingFabric.__init__", "mean", 1e3),
    "core.protocol.publish_us": ("OrderingFabric.publish", "mean", 1e6),
    "core.protocol.node_receive_self_us": ("SequencingNodeProcess.receive", "self", 1e6),
    "core.protocol.host_receive_self_us": ("HostProcess.receive", "self", 1e6),
    "core.atoms.process_us": ("AtomRuntime.process", "mean", 1e6),
    "core.delivery.on_receive_us": ("DeliveryState.on_receive", "mean", 1e6),
    "sim.dispatch_self_us": ("Simulator.step", "self", 1e6),
    "sim.network.send_us": ("Channel.send", "mean", 1e6),
    "obs.trace_record_us": ("Trace.record", "mean", 1e6),
    "check.verify_run_ms": ("verify_run", "mean", 1e3),
    "check.verify_certificate_ms": ("verify_certificate", "mean", 1e3),
}

#: reconfigure phase -> the spans inside ``reconfigure`` that make it up
_SWITCH_PHASES: Dict[str, Sequence[str]] = {
    "core.reconfigure.drain_ms": (
        "OrderingFabric.inject_epoch_fences", "OrderingFabric.run",
    ),
    "core.reconfigure.derive_ms": (
        "SequencingGraph.add_group", "SequencingGraph.remove_group",
    ),
    "core.reconfigure.rebuild_ms": ("OrderingFabric.__init__",),
    "core.reconfigure.verify_ms": ("verify_certificate",),
}


def _from_span(stats: Optional[SpanStats], kind: str, scale: float) -> float:
    if stats is None or not stats.calls:
        return 0.0
    if kind == "mean":
        return stats.mean(scale)
    if kind == "self":
        return stats.mean_self(scale)
    return percentile(sorted(stats.durations), 0.5) * scale


def collect(
    outcome: Outcome,
    tracer: Tracer,
    fabrics: List[OrderingFabric],
    rounds: List[Round],
    switch_stats: List[Dict[str, Any]],
    buffered: int,
    probed: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    stats = tracer.aggregate()
    for metric, (name, kind, scale) in _FROM_SPANS.items():
        out[metric] = _from_span(stats.get(name), kind, scale)

    switches = stats.get("reconfigure")
    if switches is not None and switches.calls:
        inside = tracer.time_inside("reconfigure")
        for metric, names in _SWITCH_PHASES.items():
            total = sum(inside.get(name, 0.0) for name in names)
            out[metric] = total / switches.calls * 1e3
        drains = sorted(s.get("drain_events", 0) for s in switch_stats)
        out["core.reconfigure.drain_events_p50"] = float(percentile(drains, 0.5))
        out["core.reconfigure.fences"] = float(
            sum(s.get("fences", 0) for s in switch_stats)
        )
        out["core.reconfigure.drain_attempts"] = float(
            sum(s.get("drain_attempts", 0) for s in switch_stats)
        )

    last = fabrics[-1]
    out["topology.dijkstra_runs"] = float(last.routing.cache_size())
    out["core.overlaps.pairs"] = float(len(last.graph.overlap_atoms()))
    out["core.sequencing_graph.atoms"] = float(len(last.graph.atoms))
    out["core.placement.nodes"] = float(len(last.placement.nodes))

    sends = sum(f.network.total_sends() for f in fabrics)
    retransmissions = sum(f.retransmissions for f in fabrics)
    acks = sum(f.acks_sent for f in fabrics)
    out["core.protocol.retransmissions"] = float(retransmissions)
    out["core.protocol.acks_sent"] = float(acks)
    out["core.protocol.link_failures"] = float(
        sum(len(f.link_failures) for f in fabrics)
    )
    if sends:
        out["core.protocol.link_useful_ratio"] = (
            (sends - retransmissions - acks) / sends
        )

    work = [f.atom_work() for f in fabrics]
    visits = sum(w["visits"] for w in work)
    out["core.atoms.visits"] = float(visits)
    out["core.atoms.stamps"] = float(sum(w["stamps"] for w in work))
    if visits:
        out["core.atoms.pass_through_ratio"] = (
            sum(w["pass_through"] for w in work) / visits
        )

    receives = stats.get("DeliveryState.on_receive")
    if receives is not None and receives.calls:
        out["core.delivery.receives"] = float(receives.calls)
        out["core.delivery.buffered_ratio"] = buffered / receives.calls
    out["core.delivery.holdback_high_water"] = float(
        max(
            p.delivery.buffered_high_water
            for f in fabrics
            for p in f.host_processes.values()
        )
    )

    events = float(sum(f.sim.events_executed for f in fabrics))
    bare = [r for r in rounds if not r.traced and r.events]
    per_event = (
        sum(r.wall for r in bare) / sum(r.events for r in bare) * 1e6 if bare else 0.0
    )
    if last.runtime.backend_name == "sim":
        out["sim.events"] = events
        out["sim.us_per_event"] = per_event
        out["sim.network.sends"] = float(sends)
        out["sim.network.drops"] = float(
            sum(f.network.total_drops() for f in fabrics)
        )
        out["sim.virtual_latency_p50_ms"] = float(
            outcome.exact.get("virtual_latency_p50_ms", 0.0)
        )
    else:
        out["runtime.asyncio.events"] = events
        out["runtime.asyncio.us_per_event"] = per_event

    out["obs.trace_records"] = float(sum(len(f.trace) for f in fabrics))
    out["switch_p50_ms"] = float(outcome.detail.get("switch_p50_ms", 0.0))
    out["deliver_p99_ms"] = outcome.detail["deliver_p99_ms"]
    out["deliver_max_ms"] = outcome.detail["deliver_max_ms"]
    out["gen.late_ms_p99"] = float(outcome.detail.get("gen_late_ms_p99", 0.0))
    out["trace.overhead_ratio"] = outcome.detail["trace_overhead_ratio"]

    unknown = set(probed) - set(out)
    if unknown:
        raise KeyError(f"probes reported unknown per-layer metrics {sorted(unknown)}")
    out.update(probed)
    return out
