"""Observability for the sequencing pipeline.

The package has six parts:

* :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` instruments
  behind a :class:`~repro.obs.registry.MetricsRegistry` that is near-zero-cost
  when disabled (call sites hold no-op null instruments).
* :mod:`repro.obs.spans` — reconstruct a per-message lifecycle span
  (``publish -> ingress -> sequencing hops -> distribution -> deliver``) from
  trace records, giving a per-phase latency breakdown per message and per
  group.
* :mod:`repro.obs.exporters` — dump traces and metrics as JSONL,
  Prometheus-style text, and Chrome trace-event JSON (Perfetto-loadable).
* :mod:`repro.obs.forensics` — the flight recorder's analysis side: rebuild
  per-message journeys and per-receiver hold-back histories from trace
  records (live or JSONL), explain every deliver-or-buffer decision with
  its blocking ``(atom, expected_seq)`` gap, and attribute stalls to loss
  / outage / peer_down / failover replay / in-flight by joining the fault
  records.  Surfaced as the ``repro explain`` CLI subcommand.
* :mod:`repro.obs.hooks` — wiring that attaches a registry to a running
  :class:`~repro.core.protocol.OrderingFabric` and its simulator.
* :mod:`repro.obs.resources` — peak-RSS and GC-pause sampling with no-op
  fallbacks, exported through the registry.

See ``docs/OBSERVABILITY.md`` for the full model and overhead notes; wall
time per layer is measured by ``bench/`` (see ``bench/README.md``).
"""

from repro.obs.forensics import (
    BufferEvent,
    Journey,
    JourneyIndex,
    render_journey,
    render_stalls,
    waits_to_dot,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    log_buckets,
)
from repro.obs.resources import GcPauseSampler, peak_rss_bytes
from repro.obs.spans import MessageSpan, PHASES, build_spans, phase_breakdown_by_group

__all__ = [
    "BufferEvent",
    "Counter",
    "Gauge",
    "GcPauseSampler",
    "Histogram",
    "Journey",
    "JourneyIndex",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "log_buckets",
    "MessageSpan",
    "PHASES",
    "build_spans",
    "peak_rss_bytes",
    "phase_breakdown_by_group",
    "render_journey",
    "render_stalls",
    "waits_to_dot",
]
