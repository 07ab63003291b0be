"""Metrics used by the paper's evaluation (Section 4).

* :mod:`repro.metrics.stats` — CDFs, percentiles, summaries.
* :mod:`repro.metrics.stretch` — latency stretch (Fig. 3) and relative
  delay penalty per sender–destination pair (Fig. 4).
* :mod:`repro.metrics.stress` — sequencing-node counts (Fig. 5), node
  stress (Fig. 6), atoms-on-path ratios (Fig. 7), and double-overlap
  counts (Fig. 8).
* :mod:`repro.metrics.overhead` — per-message ordering-metadata size
  versus vector timestamps (the Section 4.4 comparison).
"""

from repro.metrics.overhead import stamp_overhead_bytes
from repro.metrics.stats import cdf, percentile, summarize
from repro.metrics.stress import (
    atoms_on_path_ratios,
    double_overlap_count,
    node_stress,
    sequencing_node_count,
)
from repro.metrics.stretch import latency_stretch_by_destination, rdp_by_pair

__all__ = [
    "atoms_on_path_ratios",
    "cdf",
    "double_overlap_count",
    "latency_stretch_by_destination",
    "node_stress",
    "percentile",
    "rdp_by_pair",
    "sequencing_node_count",
    "stamp_overhead_bytes",
    "summarize",
]
