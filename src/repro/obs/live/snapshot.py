"""Serializable telemetry snapshots.

A :class:`TelemetrySnapshot` is the wire form of one node's live
telemetry: throughput totals, per-phase latency histograms (bucket
counts, not pre-computed quantiles), hold-back occupancy, outstanding
epoch fences, and the streaming-monitor alert feed.  The service façade
answers its ``metrics`` verb with one of these.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.obs.live.latency import PHASES, phase_summary
from repro.obs.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live.monitors import LiveMonitor

__all__ = ["TelemetrySnapshot", "SNAPSHOT_FORMAT", "WIRE_ALERTS"]

#: Schema tag embedded in every serialized snapshot.
SNAPSHOT_FORMAT = "repro-telemetry/1"

#: alerts one snapshot (or ``monitors`` reply) carries, the newest; the
#: ``violations``/``warnings`` counters cover the rest, and the serialized
#: form stays under asyncio's 64 KiB default line limit
WIRE_ALERTS = 100


def _histogram_to_dict(histogram: Histogram) -> Dict[str, Any]:
    return {
        "buckets": list(histogram.buckets),
        "counts": list(histogram.bucket_counts),
        "count": histogram.count,
        "sum": histogram.sum,
        "max": histogram.max,
    }


def _histogram_from_dict(name: str, data: Dict[str, Any]) -> Histogram:
    histogram = Histogram(name, (), tuple(data["buckets"]))
    counts = list(data["counts"])
    if len(counts) != len(histogram.bucket_counts):
        raise ValueError(
            f"histogram {name!r}: {len(counts)} bucket counts for "
            f"{len(histogram.buckets)} bounds"
        )
    histogram.bucket_counts = counts
    histogram.count = int(data["count"])
    histogram.sum = float(data["sum"])
    histogram.max = float(data["max"])
    return histogram


@dataclass
class TelemetrySnapshot:
    """One node's telemetry at a point in virtual time."""

    node: str
    now: float = 0.0
    published: int = 0
    delivered: int = 0
    #: the newest alerts, at most :data:`WIRE_ALERTS`
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    alerts_dropped: int = 0
    #: every error / warning alert raised, carried in ``alerts`` or not
    violations: int = 0
    warnings: int = 0
    #: host id (as str, JSON-friendly) -> hold-back depth
    holdback: Dict[str, int] = field(default_factory=dict)
    #: group id (as str) -> members yet to deliver the live fence
    fences: Dict[str, List[int]] = field(default_factory=dict)
    epoch: Optional[int] = None
    #: phase -> serialized histogram (bucket counts merge exactly)
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_monitor(cls, monitor: "LiveMonitor") -> "TelemetrySnapshot":
        """Capture a monitor's current state (cheap; copies counters)."""
        return cls(
            node=monitor.node,
            now=monitor.now,
            published=monitor.published_total,
            delivered=monitor.delivered_total,
            alerts=[alert.to_dict() for alert in monitor.alerts[-WIRE_ALERTS:]],
            alerts_dropped=monitor.alerts_dropped,
            violations=monitor.violations,
            warnings=monitor.warnings,
            holdback={
                str(host): depth
                for host, depth in monitor.holdback_occupancy().items()
            },
            fences={
                str(group): missing
                for group, missing in monitor.fences_outstanding().items()
            },
            epoch=monitor.epoch,
            phases={
                phase: _histogram_to_dict(monitor.latency.histograms[phase])
                for phase in PHASES
            },
        )

    def phase_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{count, p50, p99, p999, max}`` from the counts."""
        out: Dict[str, Dict[str, float]] = {}
        for phase, data in self.phases.items():
            out[phase] = phase_summary(_histogram_from_dict(phase, data))
        return out

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "node": self.node,
            "now": self.now,
            "published": self.published,
            "delivered": self.delivered,
            "violations": self.violations,
            "warnings": self.warnings,
            "alerts": list(self.alerts),
            "alerts_dropped": self.alerts_dropped,
            "holdback": dict(self.holdback),
            "fences": {g: list(m) for g, m in self.fences.items()},
            "epoch": self.epoch,
            "phases": {p: dict(d) for p, d in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetrySnapshot":
        fmt = data.get("format", SNAPSHOT_FORMAT)
        if fmt != SNAPSHOT_FORMAT:
            raise ValueError(f"unknown telemetry snapshot format {fmt!r}")
        return cls(
            node=str(data.get("node", "unknown")),
            now=float(data.get("now", 0.0)),
            published=int(data.get("published", 0)),
            delivered=int(data.get("delivered", 0)),
            alerts=list(data.get("alerts", [])),
            alerts_dropped=int(data.get("alerts_dropped", 0)),
            violations=int(data.get("violations", 0)),
            warnings=int(data.get("warnings", 0)),
            holdback={
                str(k): int(v) for k, v in data.get("holdback", {}).items()
            },
            fences={
                str(k): [int(m) for m in v]
                for k, v in data.get("fences", {}).items()
            },
            epoch=data.get("epoch"),
            phases={
                str(p): dict(d) for p, d in data.get("phases", {}).items()
            },
        )
