"""Figure 4 — relative delay penalty vs unicast delay (128 hosts, 64 groups).

"We compute the Relative Delay Penalty (RDP) — the ratio between the
sequencing and unicast delay for each sender-destination pair — and plot
it against the corresponding unicast delay between the sender and the
destination. [...] The highest values for RDP correspond to the pairs in
which the sender and the destination are very close to each other."

The reproduction bins pairs by unicast delay and reports per-bin mean and
max RDP — the shape to match is max RDP decreasing as unicast delay grows.
"""

import random
from typing import List, Tuple

from repro.experiments.common import ExperimentEnv, format_table
from repro.metrics.stretch import rdp_by_pair
from repro.workloads.zipf import zipf_membership


def run_fig4(
    env: ExperimentEnv, n_groups: int = 64, seed: int = 0
) -> List[Tuple[float, float]]:
    """``(unicast_delay, rdp)`` scatter points per sender–destination pair."""
    snapshot = zipf_membership(env.n_hosts, n_groups, rng=random.Random(seed + n_groups))
    membership = env.membership_from(snapshot)
    fabric = env.build_fabric(membership, seed=seed, trace=False)
    env.run_one_message_per_membership(fabric)
    undelivered = fabric.pending_messages()
    if undelivered:
        raise RuntimeError(f"fig4: messages stuck at {undelivered}")
    return rdp_by_pair(fabric)


def bin_points(
    points: List[Tuple[float, float]], n_bins: int = 8
) -> List[Tuple[float, float, int, float, float]]:
    """Bin scatter points by unicast delay.

    Returns ``(bin_low, bin_high, pairs, mean_rdp, max_rdp)`` rows.
    """
    if not points:
        return []
    delays = [d for d, _ in points]
    low, high = min(delays), max(delays)
    width = (high - low) / n_bins or 1.0
    rows = []
    for b in range(n_bins):
        lo = low + b * width
        hi = low + (b + 1) * width
        members = [
            rdp
            for delay, rdp in points
            if lo <= delay < hi or (b == n_bins - 1 and delay == hi)
        ]
        if members:
            rows.append((lo, hi, len(members), sum(members) / len(members), max(members)))
    return rows


def render(points: List[Tuple[float, float]]) -> str:
    headers = ["unicast_ms_low", "unicast_ms_high", "pairs", "mean_rdp", "max_rdp"]
    return format_table(
        headers,
        bin_points(points),
        title="Figure 4: RDP vs unicast delay (binned scatter)",
    )


def plot(points: List[Tuple[float, float]]):
    return "xy", "Figure 4: RDP vs unicast delay", {"rdp": points}
