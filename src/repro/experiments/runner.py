"""Run all (or selected) tables of the evaluation from the command line.

Usage (``repro figures`` takes the same options)::

    repro figures                      # every table, default scale
    repro figures --figures 3 5 a9     # a subset, by registry name
    repro figures --runs 100           # paper repetitions
    repro figures --paper-scale        # 10,000-router topology
    repro figures --csv-dir out/       # export the figures' raw series
    repro figures --ascii              # terminal plots

The names are :data:`repro.experiments.tables.TABLES`'s: ``3``…``8`` for
Figures 3–8 and ``a1``…``a9`` (and ``a3b``) for the ablations.  At the
defaults each table prints the body of its ``benchmarks/results`` file.
"""

import argparse
from typing import List, Optional

from repro.experiments import export
from repro.experiments.common import ExperimentEnv
from repro.experiments.tables import DEFAULT_RUNS, TABLES


def run_selected(
    names: List[str],
    runs: int,
    paper_scale: bool,
    n_hosts: int = 128,
    csv_dir: Optional[str] = None,
    ascii_plots: bool = False,
    metrics_out: Optional[str] = None,
) -> str:
    """Run the named tables in registry order, returning the report text.

    ``metrics_out`` attaches a metrics registry to every fabric the tables
    build through the environment and writes a Prometheus-style text dump
    there afterwards (counters accumulate across fabrics; same-label
    gauges reflect the last fabric collected).
    """
    env = ExperimentEnv(n_hosts=n_hosts, paper_scale=paper_scale)
    if metrics_out:
        from repro.obs.registry import MetricsRegistry

        env.registry = MetricsRegistry()
    sections: List[str] = []
    for table in TABLES.values():
        if table.name not in names:
            continue
        results = table.run(env, runs)
        sections.append(table.render(results))
        if table.plot is None:
            continue
        kind, title, series = table.plot(results)
        if kind == "cdf":
            if ascii_plots:
                labelled = {f"{g} groups": v for g, v in series.items()}
                sections.append(export.ascii_cdf(labelled, title=title))
            if csv_dir:
                export.export_figure(f"fig{table.name}", csv_dir, samples=series)
        else:
            if ascii_plots:
                sections.append(export.ascii_xy(series, title=title))
            if csv_dir:
                export.export_figure(f"fig{table.name}", csv_dir, xy=series)
    if metrics_out:
        from repro.obs.exporters import write_prometheus

        write_prometheus(env.registry, metrics_out)
        sections.append(f"metrics written to {metrics_out}")
    return "\n\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figures",
        nargs="+",
        choices=list(TABLES),
        default=list(TABLES),
        metavar="NAME",
        help=f"tables to reproduce: {' '.join(TABLES)} (default: all)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help="repetitions, from which each table derives its own (paper: 100)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full 10,000-router topology (slower)",
    )
    parser.add_argument("--hosts", type=int, default=128, help="subscriber hosts")
    parser.add_argument(
        "--csv-dir", default=None, help="directory for raw CSV series exports"
    )
    parser.add_argument(
        "--ascii", action="store_true", help="render ASCII plots after each table"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write a Prometheus-style metrics dump of all runs here",
    )
    args = parser.parse_args(argv)
    print(
        run_selected(
            args.figures,
            args.runs,
            args.paper_scale,
            n_hosts=args.hosts,
            csv_dir=args.csv_dir,
            ascii_plots=args.ascii,
            metrics_out=args.metrics_out,
        )
    )
    return 0
