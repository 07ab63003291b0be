"""Figure 5 — number of sequencing nodes vs number of groups.

"Figure 5 shows the average number of sequencing nodes created as we vary
the number of groups.  We vary the number of groups formed by 128
subscriber nodes from 1 to 64, and run the experiment 100 times.  The
error bars range from 10th to 90th percentile."

Only nodes hosting non-ingress-only sequencers are counted.  Shape to
match: growth with the number of groups that turns more gradual after ~30
groups (new overlaps share members with existing ones and map to existing
sequencing nodes).
"""

import random
from typing import Dict, List, Sequence

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stats import summarize
from repro.metrics.stress import sequencing_node_count
from repro.workloads.zipf import zipf_membership

DEFAULT_GROUP_COUNTS = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64)


def run_fig5(
    env: ExperimentEnv,
    group_counts: Sequence[int] = DEFAULT_GROUP_COUNTS,
    runs: int = 100,
    seed: int = 0,
) -> Dict[int, List[int]]:
    """``{n_groups: [node count per run]}`` — static analysis, no simulation."""
    results: Dict[int, List[int]] = {}
    for n_groups in group_counts:
        counts: List[int] = []
        for run in range(runs):
            run_seed = seed + 1000 * n_groups + run
            snapshot = zipf_membership(
                env.n_hosts, n_groups, rng=random.Random(run_seed)
            )
            graph = env.build_graph(snapshot, seed=run_seed)
            placement = env.build_placement(graph, seed=run_seed, machines=False)
            counts.append(sequencing_node_count(placement))
        results[n_groups] = counts
    return results


def render(results: Dict[int, List[int]]) -> str:
    headers = ["groups", "runs", "mean_nodes", "p10", "p90", "max"]
    rows = []
    for n_groups in sorted(results):
        stats = summarize(results[n_groups])
        rows.append(
            [
                n_groups,
                len(results[n_groups]),
                stats["mean"],
                stats["p10"],
                stats["p90"],
                stats["max"],
            ]
        )
    return format_table(
        headers, rows, title="Figure 5: sequencing nodes vs number of groups"
    )


def plot(results: Dict[int, List[int]]):
    series = {"nodes": [(g, sum(v) / len(v)) for g, v in sorted(results.items())]}
    return "xy", "Figure 5: sequencing nodes vs groups", series
