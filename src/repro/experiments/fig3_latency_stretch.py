"""Figure 3 — CDF of latency stretch, 128 subscribers, 8–64 groups.

"We evaluate the extra delay messages encounter when traversing the
sequencing network compared to taking the shortest unicast path. [...]
Figure 3 presents the cumulative distribution of the latency stretch
computed for 128 nodes subscribing to 8, 16, 32, and 64 groups."

Paper shape to match: stretch grows with the number of groups but
sub-linearly — max ~2.5 at 8 groups, under ~8 at 64 groups.
"""

import random
from typing import Dict, List, Sequence

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stats import percentile
from repro.metrics.stretch import latency_stretch_by_destination
from repro.workloads.zipf import zipf_membership

DEFAULT_GROUP_COUNTS = (8, 16, 32, 64)


def run_fig3(
    env: ExperimentEnv,
    group_counts: Sequence[int] = DEFAULT_GROUP_COUNTS,
    seed: int = 0,
) -> Dict[int, List[float]]:
    """Per-destination average latency stretch for each group count.

    Returns ``{n_groups: [stretch per destination node]}`` — the samples
    whose CDF is Figure 3.
    """
    results: Dict[int, List[float]] = {}
    for n_groups in group_counts:
        snapshot = zipf_membership(
            env.n_hosts, n_groups, rng=random.Random(seed + n_groups)
        )
        membership = env.membership_from(snapshot)
        fabric = env.build_fabric(membership, seed=seed, trace=False)
        env.run_one_message_per_membership(fabric)
        undelivered = fabric.pending_messages()
        if undelivered:
            raise RuntimeError(f"fig3: messages stuck at {undelivered}")
        stretch = latency_stretch_by_destination(fabric)
        results[n_groups] = sorted(stretch.values())
    return results


def render(results: Dict[int, List[float]]) -> str:
    """CDF summary table: stretch percentiles per group count."""
    headers = ["groups", "destinations", "p10", "p50", "p90", "max"]
    rows = []
    for n_groups in sorted(results):
        values = results[n_groups]
        rows.append(
            [
                n_groups,
                len(values),
                percentile(values, 10),
                percentile(values, 50),
                percentile(values, 90),
                max(values),
            ]
        )
    return format_table(
        headers, rows, title="Figure 3: latency stretch CDF by number of groups"
    )


def plot(results: Dict[int, List[float]]):
    return "cdf", "Figure 3: latency stretch CDF", results
