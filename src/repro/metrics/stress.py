"""Static sequencing-network metrics (paper Sections 4.3–4.5).

These metrics are properties of the sequencing graph and its placement,
independent of any simulated message flow:

* **sequencing-node count** (Fig. 5): number of sequencing nodes hosting
  non-ingress-only sequencers.
* **node stress** (Fig. 6): per node, the fraction of all groups whose
  messages the node forwards (stamped or passed through).
* **atoms on path** (Fig. 7): per group, the number of sequence numbers a
  message collects relative to the host population — the overhead that
  must stay below vector-timestamp size for the approach to win.
* **double-overlap count** (Fig. 8): raw number of group pairs needing a
  sequencing atom.
"""

from typing import Dict, List

from repro.core.placement import Placement
from repro.core.sequencing_graph import SequencingGraph


def sequencing_node_count(placement: Placement) -> int:
    """Number of non-ingress-only sequencing nodes (Figure 5)."""
    return len(placement.sequencing_nodes(include_ingress_only=False))


def node_stress(graph: SequencingGraph, placement: Placement) -> List[float]:
    """Stress of each non-ingress-only sequencing node (Figure 6).

    "We define the stress of a sequencing node as the ratio between the
    number of groups for which it has to forward messages and the total
    number of groups."  A node forwards for a group when any atom it hosts
    lies on the group's path (including pass-through atoms).
    """
    total_groups = len(graph.groups())
    if total_groups == 0:
        return []
    groups_forwarded: Dict[int, set] = {}
    for group in graph.groups():
        for atom_id in graph.group_path(group):
            node = placement.node_of(atom_id)
            if node.ingress_only:
                continue
            groups_forwarded.setdefault(node.node_id, set()).add(group)
    return [
        len(groups_forwarded.get(node.node_id, ())) / total_groups
        for node in placement.sequencing_nodes(include_ingress_only=False)
    ]


def atoms_on_path_ratios(graph: SequencingGraph, n_hosts: int) -> List[float]:
    """Per group: sequence numbers collected / total nodes (Figure 7).

    Counts the atoms that *stamp* a group's messages (its own atoms — the
    sequence numbers a message must carry), which is the figure's message-
    overhead interpretation; pass-through atoms add hops but no overhead.
    """
    if n_hosts <= 0:
        raise ValueError(f"n_hosts must be positive, got {n_hosts}")
    return [
        len(graph.atoms_of_group(group)) / n_hosts for group in graph.groups()
    ]


def double_overlap_count(graph: SequencingGraph) -> int:
    """Number of active overlap atoms (= double overlaps; Figure 8)."""
    return len(graph.overlap_atoms(include_retired=False))
