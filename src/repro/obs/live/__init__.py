"""Live telemetry plane: streaming monitors, latency SLOs, operator view.

Everything in this package consumes the runtime trace **as a stream**
(via :meth:`repro.runtime.trace.Trace.subscribe`) instead of post-hoc:

* :mod:`repro.obs.live.monitors` — :class:`LiveMonitor`, bounded-memory
  streaming checks of the RT300-class invariants (rules ``LM300-LM304``)
  with forensics cause attribution on stall alerts, plus an optional
  retained :class:`~repro.check.RunView` whose post-hoc verdicts are
  byte-identical to auditing the fabric directly.
* :mod:`repro.obs.live.latency` — :class:`PhaseLatencyTracker`, per-phase
  (delivery / sequencing / hold-back) fixed-bucket log-scale histograms
  with p50/p99/p999 summaries.
* :mod:`repro.obs.live.snapshot` — :class:`TelemetrySnapshot`, the
  serializable wire form served by the runtime service's ``metrics``
  verb.
* :mod:`repro.obs.live.top` — the ``repro top`` refreshing terminal
  operator view, driven live over TCP or by replaying a JSONL trace.

This package is sim-scoped (simlint's purity rules apply): no wall-clock
reads, no global RNG — monitors are pure functions of the record stream,
which is what makes their alert feeds byte-identical across fixed-seed
runs.
"""

from repro.obs.live.latency import (
    PHASES,
    PhaseLatencyTracker,
    phase_summary,
)
from repro.obs.live.monitors import (
    MONITOR_RULES,
    STALL_THRESHOLD_MS,
    LiveMonitor,
    MonitorAlert,
)
from repro.obs.live.snapshot import (
    SNAPSHOT_FORMAT,
    WIRE_ALERTS,
    TelemetrySnapshot,
)

__all__ = [
    "LiveMonitor",
    "MONITOR_RULES",
    "MonitorAlert",
    "PHASES",
    "PhaseLatencyTracker",
    "SNAPSHOT_FORMAT",
    "STALL_THRESHOLD_MS",
    "TelemetrySnapshot",
    "WIRE_ALERTS",
    "phase_summary",
]
