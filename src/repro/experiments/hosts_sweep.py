"""Host-population sweep (paper Section 4.1: "We vary the number of
end-hosts between 32 to 128").

For each population size, build the Zipf workload at a fixed group count
and measure the quantities the paper tracks: sequencing-node count, mean
node stress, worst atoms-on-path ratio, and (optionally, when simulation
is enabled) median latency stretch.  The interesting claim is the §4.4
regime statement: the approach is attractive "whenever the number of
nodes exceeds the number of groups" — the atoms-on-path ratio falls as
hosts grow past the group count.
"""

import random
from typing import Dict, List, Sequence

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stats import percentile
from repro.metrics.stress import (
    atoms_on_path_ratios,
    node_stress,
    sequencing_node_count,
)
from repro.metrics.stretch import latency_stretch_by_destination
from repro.workloads.zipf import zipf_membership

DEFAULT_HOST_COUNTS = (32, 48, 64, 96, 128)


def run_hosts_sweep(
    host_counts: Sequence[int] = DEFAULT_HOST_COUNTS,
    n_groups: int = 16,
    runs: int = 10,
    seed: int = 0,
    simulate: bool = True,
    paper_scale: bool = False,
) -> Dict[int, Dict[str, float]]:
    """``{n_hosts: {metric: value}}`` across the host sweep.

    Note: each population size needs its own environment (hosts are
    attached per size), so this sweep builds one topology per size with
    the same seed.
    """
    results: Dict[int, Dict[str, float]] = {}
    for n_hosts in host_counts:
        env = ExperimentEnv(n_hosts=n_hosts, seed=seed, paper_scale=paper_scale)
        nodes: List[int] = []
        stress: List[float] = []
        ratios: List[float] = []
        for run in range(runs):
            run_seed = seed + 1000 * n_hosts + run
            snapshot = zipf_membership(n_hosts, n_groups, rng=random.Random(run_seed))
            graph = env.build_graph(snapshot, seed=run_seed)
            placement = env.build_placement(graph, seed=run_seed, machines=False)
            nodes.append(sequencing_node_count(placement))
            stress.extend(node_stress(graph, placement))
            ratios.extend(atoms_on_path_ratios(graph, n_hosts))
        row = {
            "mean_nodes": sum(nodes) / len(nodes),
            "mean_stress": sum(stress) / len(stress) if stress else 0.0,
            "worst_atoms_ratio": max(ratios) if ratios else 0.0,
        }
        if simulate:
            snapshot = zipf_membership(n_hosts, n_groups, rng=random.Random(seed))
            fabric = env.build_fabric(env.membership_from(snapshot), seed=seed, trace=False)
            env.run_one_message_per_membership(fabric)
            stretch = sorted(latency_stretch_by_destination(fabric).values())
            row["p50_stretch"] = percentile(stretch, 50)
        results[n_hosts] = row
    return results


def render(results: Dict[int, Dict[str, float]]) -> str:
    headers = ["hosts", "mean_nodes", "mean_stress", "worst_atoms_ratio"]
    has_stretch = any("p50_stretch" in row for row in results.values())
    if has_stretch:
        headers.append("p50_stretch")
    rows = []
    for n_hosts in sorted(results):
        row = [n_hosts] + [results[n_hosts].get(h, float("nan")) for h in headers[1:]]
        rows.append(row)
    return format_table(
        headers, rows, title="Host sweep (fixed 16 Zipf groups, paper §4.1 range)"
    )

