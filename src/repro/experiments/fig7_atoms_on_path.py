"""Figure 7 — sequencing atoms on a message's path vs population size.

"We compute the ratio between the number of sequencing atoms on a path and
the total number of nodes, for different group sizes, and present it as a
cumulative distribution.  In the worst case, the number of sequencing
atoms in the path of a message is less than half of the total number of
nodes that participate."

Each group contributes one ratio: the sequence numbers its messages
collect (its own atoms) over the host population.  Shape to match: the
CDF shifts right as groups are added but the worst case stays below 0.5 —
the regime where per-atom stamps beat system-wide vector timestamps.
"""

import random
from typing import Dict, List, Sequence

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stats import percentile
from repro.metrics.stress import atoms_on_path_ratios
from repro.workloads.zipf import zipf_membership

DEFAULT_GROUP_COUNTS = (8, 16, 32, 64)


def run_fig7(
    env: ExperimentEnv,
    group_counts: Sequence[int] = DEFAULT_GROUP_COUNTS,
    runs: int = 20,
    seed: int = 0,
) -> Dict[int, List[float]]:
    """``{n_groups: pooled atoms-on-path ratios over runs}`` (static)."""
    results: Dict[int, List[float]] = {}
    for n_groups in group_counts:
        pooled: List[float] = []
        for run in range(runs):
            run_seed = seed + 1000 * n_groups + run
            snapshot = zipf_membership(
                env.n_hosts, n_groups, rng=random.Random(run_seed)
            )
            graph = env.build_graph(snapshot, seed=run_seed)
            pooled.extend(atoms_on_path_ratios(graph, env.n_hosts))
        results[n_groups] = pooled
    return results


def render(results: Dict[int, List[float]]) -> str:
    headers = ["groups", "samples", "p50_ratio", "p90_ratio", "max_ratio", "max<0.5"]
    rows = []
    for n_groups in sorted(results):
        values = results[n_groups]
        worst = max(values)
        rows.append(
            [
                n_groups,
                len(values),
                percentile(values, 50),
                percentile(values, 90),
                worst,
                "yes" if worst < 0.5 else "NO",
            ]
        )
    return format_table(
        headers,
        rows,
        title="Figure 7: atoms-on-path / total nodes (CDF summary)",
    )


def plot(results: Dict[int, List[float]]):
    return "cdf", "Figure 7: atoms-on-path ratio CDF", results
