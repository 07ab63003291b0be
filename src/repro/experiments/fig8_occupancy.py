"""Figure 8 — sequencing nodes and double overlaps vs expected occupancy.

"Using 128 nodes and 32 groups, we vary the expected occupancy between 0
and 1 [...] As the expected occupancy increases, the number of double
overlaps and necessary sequencing nodes increase until approximately 0.2
occupancy.  Beyond this, increasing group densities creates double
overlaps that have common members with existing overlaps, and the number
of sequencing nodes gradually decreases.  When the group densities are
very high (above 0.9), the overlaps include the entire population and the
number of sequencing nodes drops to one."

Shape to match: overlaps rise monotonically toward the full pair count;
sequencing nodes peak near 0.2 occupancy and fall to 1 above ~0.9.
"""

import random
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stress import double_overlap_count, sequencing_node_count
from repro.workloads.occupancy import occupancy_membership

DEFAULT_OCCUPANCIES = tuple(x / 20 for x in range(1, 21))  # 0.05 .. 1.00


def run_fig8(
    env: ExperimentEnv,
    n_groups: int = 32,
    occupancies: Sequence[float] = DEFAULT_OCCUPANCIES,
    runs: int = 10,
    seed: int = 0,
) -> Dict[float, Tuple[float, float]]:
    """``{occupancy: (mean double overlaps, mean sequencing nodes)}``."""
    results: Dict[float, Tuple[float, float]] = {}
    for occupancy in occupancies:
        overlaps: List[int] = []
        nodes: List[int] = []
        for run in range(runs):
            run_seed = seed + 10_000 * run + round(occupancy * 100)
            snapshot = occupancy_membership(
                env.n_hosts, n_groups, occupancy, rng=random.Random(run_seed)
            )
            graph = env.build_graph(snapshot, seed=run_seed)
            placement = env.build_placement(graph, seed=run_seed, machines=False)
            overlaps.append(double_overlap_count(graph))
            nodes.append(sequencing_node_count(placement))
        results[occupancy] = (
            sum(overlaps) / len(overlaps),
            sum(nodes) / len(nodes),
        )
    return results


def render(results: Dict[float, Tuple[float, float]]) -> str:
    headers = ["occupancy", "mean_double_overlaps", "mean_sequencing_nodes"]
    rows = [
        [occupancy, results[occupancy][0], results[occupancy][1]]
        for occupancy in sorted(results)
    ]
    return format_table(
        headers,
        rows,
        title="Figure 8: double overlaps & sequencing nodes vs occupancy "
        "(128 hosts, 32 groups)",
    )


def plot(results: Dict[float, Tuple[float, float]]):
    series = {
        "double_overlaps": [(occ, results[occ][0]) for occ in sorted(results)],
        "sequencing_nodes": [(occ, results[occ][1]) for occ in sorted(results)],
    }
    return "xy", "Figure 8: overlaps & nodes vs occupancy", series
