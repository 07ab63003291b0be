"""Streaming per-phase latency percentiles from trace records.

The paper's evaluation (and the mean-only summaries PR 1 shipped) hide
tail behaviour; FlexCast-style evaluation reports percentile
distributions instead.  :class:`PhaseLatencyTracker` feeds three
fixed-bucket log-scale histograms (:func:`repro.obs.registry.log_buckets`,
0.01 ms .. 10 s, 4 buckets per decade) straight from the trace stream:

* ``delivery`` — ingress→delivery: ``deliver.time - publish_time``, one
  observation per application delivery.
* ``sequencing`` — publish→distribution: time a message spent in the
  sequencing layer before fan-out, one observation per distributed
  message (the per-message publish time is evicted at the ``distribute``
  record, so the working set is only the in-flight window).
* ``holdback`` — hold-back wait: the ``waited`` field of each ``drain``
  record.  Deliveries that never buffered wait 0 ms and are *not*
  observed here — the histogram answers "when we buffered, for how
  long", which is the stall-facing question.

All values are **virtual milliseconds**, so the same percentiles come out
of a simulated run and a live asyncio run (scaled by the backend's
clock).
"""

from typing import Dict, Optional

from repro.obs.registry import Histogram, MetricsRegistry
from repro.runtime.trace import TraceRecord

__all__ = ["PHASES", "PhaseLatencyTracker", "phase_summary"]

#: The tracked pipeline phases, in report order.
PHASES = ("delivery", "sequencing", "holdback")

#: Metric name shared by all three phase histograms (label ``phase``).
PHASE_METRIC = "repro_phase_latency_ms"

#: Quantiles surfaced in summaries: median plus the SLO tails.
SUMMARY_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class PhaseLatencyTracker:
    """Feed per-phase latency histograms from a trace-record stream."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.histograms: Dict[str, Histogram] = {
            phase: self.registry.histogram(
                PHASE_METRIC,
                "Per-phase pipeline latency in virtual milliseconds",
                phase=phase,
            )
            for phase in PHASES
        }
        #: msg -> publish time, evicted at the distribute record
        self._publish_time: Dict[int, float] = {}

    def observe(self, record: TraceRecord) -> None:
        """Consume one trace record (publish/distribute/deliver/drain)."""
        kind = record.kind
        if kind == "deliver":
            self.histograms["delivery"].observe(
                record.time - float(record.data["publish_time"])
            )
        elif kind == "drain":
            waited = record.data.get("waited")
            if waited is not None:
                self.histograms["holdback"].observe(float(waited))
        elif kind == "publish":
            self._publish_time[int(record.data["msg"])] = record.time
        elif kind == "distribute":
            published_at = self._publish_time.pop(
                int(record.data["msg"]), None
            )
            if published_at is not None:
                self.histograms["sequencing"].observe(
                    record.time - published_at
                )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{count, p50, p99, p999, max}`` (virtual ms)."""
        return {
            phase: phase_summary(self.histograms[phase]) for phase in PHASES
        }


def phase_summary(histogram: Histogram) -> Dict[str, float]:
    """Quantile summary of one histogram (count, p50/p99/p999, max)."""
    out: Dict[str, float] = {"count": float(histogram.count)}
    for label, q in SUMMARY_QUANTILES:
        out[label] = histogram.quantile(q)
    out["max"] = histogram.max
    return out
