"""Latency stretch and relative delay penalty (paper Sections 4.2).

*Latency stretch* is "the ratio between the time taken for a message to
traverse the network using the sequencers and the time taken using the
direct unicast path".  Per the paper's methodology, each node sends one
message to each of its groups; per-(sender, destination) ratios are
averaged and indexed by destination node (Figure 3 plots their CDF).

The *relative delay penalty* (RDP, after Chu et al.) is the same ratio
kept per sender–destination pair and plotted against the pair's unicast
delay (Figure 4) — showing that nearby pairs pay the largest relative
penalty.
"""

from typing import Dict, List, Tuple

from repro.core.protocol import OrderingFabric


def _pair_ratios(fabric: OrderingFabric) -> List[Tuple[int, int, float, float]]:
    """``(sender, dest, unicast_delay, ratio)`` per delivered message."""
    rows: List[Tuple[int, int, float, float]] = []
    for host_id, process in fabric.host_processes.items():
        for record in process.delivered:
            sequenced = record.time - record.publish_time
            unicast = fabric.unicast_delay(record.sender, host_id)
            if unicast <= 0:
                continue
            rows.append((record.sender, host_id, unicast, sequenced / unicast))
    return rows


def latency_stretch_by_destination(fabric: OrderingFabric) -> Dict[int, float]:
    """Average sequencing/unicast delay ratio per destination node.

    Run the fabric to quiescence first; every delivered message
    contributes one ratio to its destination's average.
    """
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for _sender, dest, _unicast, ratio in _pair_ratios(fabric):
        sums[dest] = sums.get(dest, 0.0) + ratio
        counts[dest] = counts.get(dest, 0) + 1
    return {dest: sums[dest] / counts[dest] for dest in sums}


def rdp_by_pair(fabric: OrderingFabric) -> List[Tuple[float, float]]:
    """``(unicast_delay, rdp)`` scatter points per sender–destination pair.

    When a pair exchanged several messages, their ratios are averaged so
    each pair contributes one point, as in Figure 4.
    """
    sums: Dict[Tuple[int, int], Tuple[float, float, int]] = {}
    for sender, dest, unicast, ratio in _pair_ratios(fabric):
        total_unicast, total_ratio, count = sums.get((sender, dest), (0.0, 0.0, 0))
        sums[(sender, dest)] = (total_unicast + unicast, total_ratio + ratio, count + 1)
    return sorted(
        (total_unicast / count, total_ratio / count)
        for total_unicast, total_ratio, count in sums.values()
    )
