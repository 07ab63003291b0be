"""Figure 6 — sequencing-node stress vs number of groups.

"We define the stress of a sequencing node as the ratio between the number
of groups for which it has to forward messages and the total number of
groups. [...] we present the average, 90th percentile and maximum values
of stress as the number of groups increases."

Shape to match: stress decreases as groups (and nodes) are added,
stabilizing around ~0.2 on average, then rises slightly past ~30 groups
when node growth slows while the group count keeps increasing.
"""

import random
from typing import Dict, List, Sequence

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stats import percentile
from repro.metrics.stress import node_stress
from repro.workloads.zipf import zipf_membership

DEFAULT_GROUP_COUNTS = (2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64)


def run_fig6(
    env: ExperimentEnv,
    group_counts: Sequence[int] = DEFAULT_GROUP_COUNTS,
    runs: int = 100,
    seed: int = 0,
) -> Dict[int, List[float]]:
    """``{n_groups: pooled per-node stress values over all runs}``."""
    results: Dict[int, List[float]] = {}
    for n_groups in group_counts:
        pooled: List[float] = []
        for run in range(runs):
            run_seed = seed + 1000 * n_groups + run
            snapshot = zipf_membership(
                env.n_hosts, n_groups, rng=random.Random(run_seed)
            )
            graph = env.build_graph(snapshot, seed=run_seed)
            placement = env.build_placement(graph, seed=run_seed, machines=False)
            pooled.extend(node_stress(graph, placement))
        results[n_groups] = pooled
    return results


def render(results: Dict[int, List[float]]) -> str:
    headers = ["groups", "nodes_sampled", "avg_stress", "p90_stress", "max_stress"]
    rows = []
    for n_groups in sorted(results):
        values = results[n_groups]
        if not values:
            rows.append([n_groups, 0, 0.0, 0.0, 0.0])
            continue
        rows.append(
            [
                n_groups,
                len(values),
                sum(values) / len(values),
                percentile(values, 90),
                max(values),
            ]
        )
    return format_table(
        headers, rows, title="Figure 6: sequencing-node stress vs number of groups"
    )


def plot(results: Dict[int, List[float]]):
    series = {
        "avg_stress": [(g, sum(v) / len(v)) for g, v in sorted(results.items()) if v]
    }
    return "xy", "Figure 6: stress vs groups", series
