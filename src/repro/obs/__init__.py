"""Observability for the sequencing pipeline.

The package has five parts:

* :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` instruments
  behind a :class:`~repro.obs.registry.MetricsRegistry` that is near-zero-cost
  when disabled (call sites hold no-op null instruments).
* :mod:`repro.obs.forensics` — the one reconstruction of a message's path:
  rebuild per-message journeys (sequencing-node visits, the per-phase
  ``ingress -> sequencing -> distribution`` split per delivered copy) and
  per-receiver hold-back histories from trace records (live or JSONL),
  explain every deliver-or-buffer decision with its blocking
  ``(atom, expected_seq)`` gap, and attribute stalls to loss / outage /
  peer_down / failover replay / in-flight by joining the fault records.
  Surfaced as the ``repro explain`` CLI subcommand and ``repro trace run``'s
  phase table.
* :mod:`repro.obs.exporters` — dump traces and metrics as JSONL,
  Prometheus-style text, and Chrome trace-event JSON (Perfetto-loadable).
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
    "peak_rss_bytes",
    "render_journey",
    "render_stalls",
    "waits_to_dot",
]
