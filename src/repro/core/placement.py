"""Placing sequencing atoms onto machines (paper Section 3.4).

Two-step co-location of atoms onto *sequencing nodes*:

1. **Subset rule** — atoms whose overlap member-sets are in a subset
   relationship are co-located (e.g. overlap {A,B} ⊆ {A,B,C} ⇒ same node).
2. **Shared-member rule** — for each overlap not yet co-located, choose one
   of its members at random and co-locate every not-yet-co-located overlap
   containing that member.  Each atom is co-located only once.

The co-location preserves the paper's scalability goal: all groups handled
by one sequencing node share at least a member, so that member's receive
load upper-bounds the node's load.

Machine assignment then maps sequencing nodes onto physical routers, run on
behalf of each group (Section 3.4):

* if no sequencing node of the group is assigned yet, assign one at random
  (we pick the access router of a random group member — "at random" in the
  paper, anchored to the group so sequencers start near subscribers);
* otherwise, pick the closest unassigned sequencing node on the group's
  sequencing path and assign it to a machine neighboring the already
  assigned one.

Ingress-only atoms each form their own (ingress-only) sequencing node on a
random member's router; they are excluded from the Figure 5 node counts,
which the paper restricts to non-ingress-only sequencers.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.messages import AtomId
from repro.core.sequencing_graph import SequencingGraph
from repro.topology.gtitm import Topology
from repro.topology.routing import RoutingTable


@dataclass
class SequencingNode:
    """A set of co-located sequencing atoms hosted by one machine.

    Attributes
    ----------
    node_id:
        Dense index of this sequencing node.
    atom_ids:
        The atoms hosted here.
    machine:
        Router id hosting this node (set by machine assignment).
    ingress_only:
        True when the node hosts only ingress-only atoms.
    """

    node_id: int
    atom_ids: List[AtomId] = field(default_factory=list)
    machine: Optional[int] = None
    ingress_only: bool = False


class Placement:
    """The complete atom -> sequencing node -> machine mapping."""

    def __init__(self, nodes: List[SequencingNode]):
        self.nodes = nodes
        self._node_of_atom: Dict[AtomId, int] = {}
        for node in nodes:
            for atom_id in node.atom_ids:
                if atom_id in self._node_of_atom:
                    raise ValueError(f"atom {atom_id} co-located twice")
                self._node_of_atom[atom_id] = node.node_id

    def node_of(self, atom_id: AtomId) -> SequencingNode:
        """Sequencing node hosting ``atom_id``."""
        return self.nodes[self._node_of_atom[atom_id]]

    def sequencing_nodes(self, include_ingress_only: bool = False) -> List[SequencingNode]:
        """Sequencing nodes, by default only non-ingress-only ones.

        Figure 5 counts "only the sequencing nodes that host non-ingress-
        only sequencers".
        """
        if include_ingress_only:
            return list(self.nodes)
        return [node for node in self.nodes if not node.ingress_only]

    def export(self) -> Dict[str, List[Dict[str, object]]]:
        """Serialize for a sequencing-graph certificate.

        Atom references use the same ``[kind, [groups]]`` encoding as
        :meth:`SequencingGraph.export_certificate`, so the placement
        section of a certificate is self-contained JSON.
        """
        return {
            "nodes": [
                {
                    "node_id": node.node_id,
                    "machine": node.machine,
                    "ingress_only": node.ingress_only,
                    "atom_ids": [
                        [a.kind, list(a.groups)] for a in sorted(node.atom_ids)
                    ],
                }
                for node in self.nodes
            ]
        }

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# Step 1 + 2: co-location
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[AtomId, AtomId] = {}

    def add(self, x: AtomId) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: AtomId) -> AtomId:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: AtomId, b: AtomId) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)

    def components(self) -> List[List[AtomId]]:
        groups: Dict[AtomId, List[AtomId]] = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(members) for _, members in sorted(groups.items())]


def co_locate_atoms(
    graph: SequencingGraph,
    rng: Optional[random.Random] = None,
) -> List[SequencingNode]:
    """Group atoms into sequencing nodes per the Section 3.4 heuristic."""
    rng = rng or random.Random(0)
    overlap_atoms = graph.overlap_atoms(include_retired=True)
    members_of: Dict[AtomId, FrozenSet[int]] = {
        atom_id: graph.atoms[atom_id].overlap_members for atom_id in overlap_atoms
    }

    # Step 1: subset rule via union-find over overlap member-sets.
    # Member sets are encoded as integer bitmasks so the O(atoms^2)
    # subset test stays cheap even with hundreds of atoms (Figure 8's
    # high-occupancy sweeps).
    mask_of: Dict[AtomId, int] = {}
    for atom_id, members in members_of.items():
        mask = 0
        for member in members:
            mask |= 1 << member
        mask_of[atom_id] = mask
    uf = _UnionFind()
    for atom_id in overlap_atoms:
        uf.add(atom_id)
    by_size = sorted(overlap_atoms, key=lambda a: len(members_of[a]))
    for i, a in enumerate(by_size):
        mask_a = mask_of[a]
        for b in by_size[i + 1 :]:
            # |a| <= |b| by construction, so only a ⊆ b is possible.
            if mask_a & mask_of[b] == mask_a:
                uf.union(a, b)
    families = uf.components()

    # Step 2: shared-member rule over whole families ("each sequencing atom
    # be co-located only once" — a family is co-located as a unit).
    family_members: List[FrozenSet[int]] = [
        frozenset().union(*(members_of[a] for a in family)) for family in families
    ]
    assigned: Set[int] = set()
    nodes: List[SequencingNode] = []
    for index, family in enumerate(families):
        if index in assigned:
            continue
        node = SequencingNode(node_id=len(nodes))
        node.atom_ids.extend(family)
        assigned.add(index)
        # Choose a random member of this family's overlap and pull in every
        # unassigned family containing that member.
        anchor = rng.choice(sorted(family_members[index]))
        for other in range(len(families)):
            if other in assigned:
                continue
            if anchor in family_members[other]:
                node.atom_ids.extend(families[other])
                assigned.add(other)
        nodes.append(node)

    # Ingress-only atoms: one node each.
    for atom_id in sorted(graph.atoms):
        if atom_id.is_ingress_only:
            nodes.append(
                SequencingNode(
                    node_id=len(nodes), atom_ids=[atom_id], ingress_only=True
                )
            )
    return nodes


# ---------------------------------------------------------------------------
# Machine assignment
# ---------------------------------------------------------------------------


def assign_machines(
    nodes: List[SequencingNode],
    graph: SequencingGraph,
    host_router: Dict[int, int],
    topology: Topology,
    routing: RoutingTable,
    rng: Optional[random.Random] = None,
) -> Placement:
    """Map sequencing nodes to routers, run on behalf of each group.

    Parameters
    ----------
    nodes:
        Output of :func:`co_locate_atoms`.
    graph:
        The sequencing graph (for group paths).
    host_router:
        Access router of each host id.
    topology, routing:
        The underlay: router count and neighbor lookups.
    rng:
        Random source; fresh ``Random(0)`` when omitted.
    """
    rng = rng or random.Random(0)
    placement = Placement(nodes)

    def neighbor_machine(machine: int) -> int:
        neighbors = routing.neighbors(machine)
        if not neighbors:
            return machine
        return rng.choice(neighbors)

    def random_member_router(group: int) -> int:
        members = sorted(graph.members(group))
        candidates = [host_router[m] for m in members if m in host_router]
        if not candidates:
            return rng.randrange(topology.n_nodes)
        return rng.choice(candidates)

    for group in graph.groups():
        path = graph.group_path(group)
        # Sequencing nodes on this group's path, deduped, in path order.
        node_ids: List[int] = []
        for atom_id in path:
            node = placement.node_of(atom_id)
            if node.node_id not in node_ids:
                node_ids.append(node.node_id)
        unassigned = [i for i in node_ids if placement.nodes[i].machine is None]
        if not unassigned:
            continue
        if all(placement.nodes[i].machine is None for i in node_ids):
            seed_id = rng.choice(node_ids)
            placement.nodes[seed_id].machine = random_member_router(group)
            unassigned = [i for i in node_ids if placement.nodes[i].machine is None]
        # Repeatedly assign the unassigned node closest (in path hops) to an
        # assigned one, placing it on a machine neighboring its anchor.
        while unassigned:
            positions = {node_id: pos for pos, node_id in enumerate(node_ids)}
            best: Optional[int] = None
            best_dist = None
            best_anchor = None
            for node_id in unassigned:
                for other_id in node_ids:
                    if placement.nodes[other_id].machine is None:
                        continue
                    dist = abs(positions[node_id] - positions[other_id])
                    if best_dist is None or dist < best_dist:
                        best_dist = dist
                        best = node_id
                        best_anchor = other_id
            assert best is not None and best_anchor is not None
            anchor_machine = placement.nodes[best_anchor].machine
            assert anchor_machine is not None
            placement.nodes[best].machine = neighbor_machine(anchor_machine)
            unassigned.remove(best)

    # Any node on no group's path (possible for fully retired nodes) gets a
    # fallback machine so the placement is total.
    for node in placement.nodes:
        if node.machine is None:
            node.machine = rng.randrange(topology.n_nodes)
    return placement


def co_locate_and_order(
    graph: SequencingGraph,
    rng: Optional[random.Random] = None,
) -> List[SequencingNode]:
    """Co-locate atoms, then reorder chains around the co-location.

    Reordering makes each sequencing node's atoms contiguous on their
    chain, so consecutive sequencing steps happen on one machine and
    per-group machine-hop counts drop (see
    :meth:`SequencingGraph.reorder_for_colocation`).  This is the step
    that recovers the performance the paper attributes to placing related
    atoms on the same node.
    """
    rng = rng or random.Random(0)
    nodes = co_locate_atoms(graph, rng=rng)
    graph.reorder_for_colocation(
        {atom_id: node.node_id for node in nodes for atom_id in node.atom_ids}
    )
    return nodes


def place(
    graph: SequencingGraph,
    host_router: Dict[int, int],
    topology: Topology,
    routing: RoutingTable,
    rng: Optional[random.Random] = None,
) -> Placement:
    """Convenience: co-locate atoms, reorder chains, assign machines."""
    rng = rng or random.Random(0)
    nodes = co_locate_and_order(graph, rng=rng)
    return assign_machines(nodes, graph, host_router, topology, routing, rng=rng)


def random_placement(
    graph: SequencingGraph,
    topology: Topology,
    rng: Optional[random.Random] = None,
) -> Placement:
    """Ablation baseline: every atom on its own node, random machines.

    This is the strawman the paper dismisses ("randomly scattering
    sequencing atoms throughout the network would lead to poor
    performance"); the placement ablation benchmark quantifies the gap.
    """
    rng = rng or random.Random(0)
    nodes: List[SequencingNode] = []
    for atom_id in sorted(graph.atoms):
        nodes.append(
            SequencingNode(
                node_id=len(nodes),
                atom_ids=[atom_id],
                machine=rng.randrange(topology.n_nodes),
                ingress_only=atom_id.is_ingress_only,
            )
        )
    return Placement(nodes)
