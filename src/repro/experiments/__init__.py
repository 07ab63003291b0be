"""Experiment harness regenerating every table of the paper's evaluation.

The paper's evaluation (Section 4) has no numbered tables; its results are
Figures 3–8 (Figures 1–2 are protocol diagrams).  One module per figure,
plus the ablations beside them:

============  =================================================  =========
module        reproduces                                         kind
============  =================================================  =========
fig3          CDF of latency stretch (128 nodes, 8–64 groups)    simulated
fig4          RDP vs unicast delay per sender–destination pair   simulated
fig5          # sequencing nodes vs # groups (10/90th pct)       static
fig6          sequencing-node stress vs # groups (avg/90th/max)  static
fig7          CDF of atoms-on-path / total nodes                 static
fig8          # sequencing nodes & double overlaps vs occupancy  static
hosts_sweep   A7: the §4.1 host range, 32–128                    both
ablations     A1–A6, A8, A9: overhead, baselines, churn,         both
              placement, throughput, failures, Waxman, ordering
tables        the registry: each table once, with its claims
runner        ``repro figures``: the selected tables, CSV, plots
============  =================================================  =========

Run them all: ``repro figures`` (add ``--paper-scale`` for the full
10,000-router topology); ``benchmarks/`` runs the same registry and
asserts each table's claims.  Each figure module exposes a ``run_*``
function returning structured data, a ``render`` helper producing the
text table and a ``plot`` helper naming the series its ASCII plot and CSV
export show.  This package imports only :mod:`~repro.experiments.common`;
the registry and the ablations load when asked for.
"""

from repro.experiments.common import ExperimentEnv, format_table

__all__ = ["ExperimentEnv", "format_table"]
