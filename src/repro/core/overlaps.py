"""Double-overlap analysis of the group membership matrix.

The paper's central insight: only groups sharing **two or more**
subscribers ("double overlapped" groups) can be observed to arrive out of
order, because at least two common receivers are needed to compare orders.
One sequencing atom is instantiated per double overlap.

Atoms that share a group cannot be sequenced independently — their groups'
paths must intersect — so the *conflict graph* over atoms (adjacency =
shared group) partitions the problem into independent *overlap clusters*,
one sequencing chain per cluster (see
:mod:`repro.core.sequencing_graph`).
"""

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

MembershipSnapshot = Dict[int, FrozenSet[int]]
OverlapPair = Tuple[int, int]

#: Minimum shared subscribers for an overlap to need sequencing.  The paper
#: fixes this at 2; it is a parameter here so tests can explore the
#: degenerate threshold=1 behaviour.
DOUBLE_OVERLAP_THRESHOLD = 2


def double_overlaps(
    snapshot: MembershipSnapshot,
    threshold: int = DOUBLE_OVERLAP_THRESHOLD,
) -> Dict[OverlapPair, FrozenSet[int]]:
    """All group pairs sharing at least ``threshold`` members.

    Returns a map from the sorted group-id pair to the full intersection of
    the two groups' memberships.  Runs in
    ``O(sum_over_nodes subscriptions(node)^2)`` — it never enumerates group
    pairs that share no member.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    groups_of: Dict[int, List[int]] = {}
    for group_id, members in snapshot.items():
        for node in members:
            groups_of.setdefault(node, []).append(group_id)

    shared: Dict[OverlapPair, Set[int]] = {}
    for node, node_groups in groups_of.items():
        node_groups.sort()
        for i, g in enumerate(node_groups):
            for h in node_groups[i + 1 :]:
                shared.setdefault((g, h), set()).add(node)

    return {
        pair: frozenset(members)
        for pair, members in shared.items()
        if len(members) >= threshold
    }


def overlap_clusters(pairs: Iterable[OverlapPair]) -> List[List[OverlapPair]]:
    """Partition overlap pairs into clusters connected by shared groups.

    Two pairs conflict (must live in the same sequencing chain) when they
    name a common group.  All atoms of one group pairwise conflict, so each
    group's atoms always land in a single cluster — which is what lets C1
    hold with one chain per cluster.

    Clusters and their contents are returned in deterministic sorted order.
    """
    pair_list = sorted(set(pairs))
    by_group: Dict[int, List[OverlapPair]] = {}
    for pair in pair_list:
        for group in pair:
            by_group.setdefault(group, []).append(pair)

    clusters: List[List[OverlapPair]] = []
    seen: Set[OverlapPair] = set()
    for start in pair_list:
        if start in seen:
            continue
        # BFS over the conflict graph via shared groups.
        cluster: List[OverlapPair] = []
        frontier = [start]
        seen.add(start)
        while frontier:
            pair = frontier.pop()
            cluster.append(pair)
            for group in pair:
                for other in by_group[group]:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        clusters.append(sorted(cluster))
    return clusters
