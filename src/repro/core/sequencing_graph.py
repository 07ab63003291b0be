"""Construction and maintenance of the sequencing graph (paper Section 3.2).

The sequencing graph must satisfy two criteria:

* **C1** — a single path must connect the sequencers associated with each
  group, and
* **C2** — the undirected sequencing graph must be loop-free.

The paper requires these properties but leaves the construction algorithm
open ("we use a global picture of the sequencing graph and subscription
matrix state to find a new sequencer arrangement").  Our construction uses
a *chain per overlap cluster*:

1. One sequencing atom per double overlap (:mod:`repro.core.overlaps`).
2. Atoms that transitively share groups form an overlap cluster; all atoms
   of any one group are in the same cluster (they pairwise share that
   group).
3. The atoms of each cluster are arranged on a **chain** — a simple path.
   A chain is trivially loop-free (C2), and any subset of a chain lies on
   a sub-path of it (C1).  A group's sequencing path is the contiguous
   chain segment from its first to its last atom; atoms inside the segment
   that do not sequence the group are *pass-through* atoms, forwarding
   messages in arrival order without stamping them — exactly the
   "m₃ transits Q₁" mechanism the paper's Theorem 1 relies on.  All groups
   traverse the chain in the same canonical direction (increasing
   position), which makes arrival order propagate consistently along
   shared segments over the FIFO inter-sequencer channels.

This matches the paper's own fix for its Figure 2 example: the atom
triangle Q0–Q1–Q2 becomes the chain Q0–Q1–Q2 with message m₁ passing
through Q1.

Chain *ordering* is a pure efficiency knob (it changes how many
pass-through atoms messages cross, never correctness).  We order greedily
by group affinity and optionally improve with adjacent-swap hill climbing.

Groups without any double overlap get an *ingress-only* atom that assigns
only group-local sequence numbers (paper Section 3.2: "Adding the first
group G0 is trivial: an ingress-only sequencer is created").

Dynamic operations follow Section 3.2: adding a group instantiates atoms
for its new overlaps and splices them into the (possibly merged) cluster
chain; removing a group retires its atoms either lazily (they stay on the
chain as pass-through placeholders — "adding ignored sequence numbers to a
message does not hurt correctness, only efficiency") or eagerly (spliced
out, chains re-split).
"""

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import AtomId
from repro.core.overlaps import (
    DOUBLE_OVERLAP_THRESHOLD,
    MembershipSnapshot,
    double_overlaps,
    overlap_clusters,
)


class GraphInvariantError(AssertionError):
    """Raised by :meth:`SequencingGraph.validate` when C1/C2 are violated."""


@dataclass(frozen=True)
class AtomSpec:
    """Static description of a sequencing atom.

    ``overlap_members`` is the intersection of the two groups' memberships
    at atom creation time — the set of receivers for which this atom's
    sequence numbers are *relevant* (paper Section 3.2).  Empty for
    ingress-only atoms.
    """

    atom_id: AtomId
    overlap_members: FrozenSet[int]


# ---------------------------------------------------------------------------
# Chain ordering heuristics
# ---------------------------------------------------------------------------


def pass_through_cost(
    chain: Sequence[AtomId], atoms_by_group: Dict[int, List[AtomId]]
) -> int:
    """Total pass-through atoms across all groups for this chain order.

    For each group, its messages traverse the segment between its first and
    last atom; every atom inside that segment not sequencing the group is a
    pass-through hop.  Lower is better.
    """
    pos = {atom: i for i, atom in enumerate(chain)}
    cost = 0
    for atoms in atoms_by_group.values():
        positions = [pos[a] for a in atoms if a in pos]
        if len(positions) > 1:
            cost += (max(positions) - min(positions) + 1) - len(positions)
    return cost


def _best_slot(chain: Sequence[AtomId], atom: AtomId) -> int:
    """Slot at which inserting ``atom`` adds the fewest pass-through hops.

    Slot ``p`` puts the atom before ``chain[p]``; slot ``len(chain)``
    appends.  The result is the first minimum, in ascending ``p``, of
    :func:`pass_through_cost` over the ``len(chain) + 1`` candidate
    chains, found in O(len(chain) + groups) without building any of them.
    One pass gives every group its extent ``[lo, hi]`` on the chain
    (retired placeholders count: they still occupy a position).  Every
    candidate has the same cost up to a per-slot term, and that term is
    exact integer arithmetic:

    * a group ``atom`` does not sequence pays one more pass-through hop
      exactly when the slot is strictly inside its extent,
      ``lo < p <= hi`` — summed over groups with a difference array;
    * a group ``atom`` sequences has its extent stretched to reach the
      slot: ``lo - p`` more hops before it, ``p - hi - 1`` after it, none
      inside; a group not yet on the chain costs nothing anywhere.
    """
    n = len(chain)
    lo: Dict[int, int] = {}
    hi: Dict[int, int] = {}
    for index, placed in enumerate(chain):
        for g in placed.groups:
            lo.setdefault(g, index)
            hi[g] = index
    crossing = [0] * (n + 1)
    for g, first in lo.items():
        if g not in atom.groups:
            crossing[first + 1] += 1
            crossing[hi[g] + 1] -= 1
    own = [(lo[g], hi[g]) for g in atom.groups if g in lo]
    costs: List[int] = []
    crossed = 0
    for slot in range(n + 1):
        crossed += crossing[slot]
        cost = crossed
        for first, last in own:
            if slot <= first:
                cost += first - slot
            elif slot > last:
                cost += slot - last - 1
        costs.append(cost)
    return costs.index(min(costs))


def _greedy_order_items(items: Dict[object, FrozenSet[int]]) -> List[object]:
    """Order items (atoms or co-location blocks) by group affinity.

    Grows the chain one item at a time, preferring items that close
    currently-open groups (groups with placed and unplaced items), then
    items sharing groups with the current tail.  Deterministic: keys must
    be totally ordered, and ties break on the smallest key.

    The inner loop is O(items^2) in the worst case but runs on dense
    integer indices (item keys are sorted once), which keeps dense
    overlap clusters — Figure 8's high-occupancy sweeps create hundreds
    of atoms in one cluster — fast.
    """
    if len(items) <= 2:
        return sorted(items)
    keys = sorted(items)
    n = len(keys)
    # Dense group ids.
    group_ids: Dict[int, int] = {}
    item_groups: List[List[int]] = []
    for key in keys:
        dense = []
        for g in items[key]:
            gid = group_ids.setdefault(g, len(group_ids))
            dense.append(gid)
        item_groups.append(dense)
    n_groups = len(group_ids)
    total = [0] * n_groups
    for dense in item_groups:
        for gid in dense:
            total[gid] += 1
    placed = [0] * n_groups

    # Start with an item of the most-sequenced group: its segment is the
    # longest, so anchoring it early keeps it contiguous (smallest index
    # wins ties, matching the key order).
    start = max(range(n), key=lambda i: (max(total[g] for g in item_groups[i]), -i))
    order = [start]
    unplaced = [True] * n
    unplaced[start] = False
    for gid in item_groups[start]:
        placed[gid] += 1

    for _ in range(n - 1):
        tail_groups = item_groups[order[-1]]
        best = -1
        best_open = -1
        best_tail = -1
        for index in range(n):
            if not unplaced[index]:
                continue
            open_hits = 0
            tail_hits = 0
            for gid in item_groups[index]:
                if 0 < placed[gid] < total[gid]:
                    open_hits += 1
                if gid in tail_groups:
                    tail_hits += 1
            if (
                best < 0
                or open_hits > best_open
                or (open_hits == best_open and tail_hits > best_tail)
            ):
                best = index
                best_open = open_hits
                best_tail = tail_hits
        order.append(best)
        unplaced[best] = False
        for gid in item_groups[best]:
            placed[gid] += 1
    return [keys[i] for i in order]


def _greedy_order(atom_ids: List[AtomId], rng: random.Random) -> List[AtomId]:
    """Order cluster atoms by group affinity (see _greedy_order_items)."""
    return _greedy_order_items(
        {atom: frozenset(atom.groups) for atom in atom_ids}
    )


def _improve_order(
    chain: List[AtomId],
    atoms_by_group: Dict[int, List[AtomId]],
    max_passes: int = 4,
) -> List[AtomId]:
    """Adjacent-swap hill climbing on the pass-through cost."""
    chain = list(chain)
    best_cost = pass_through_cost(chain, atoms_by_group)
    for _ in range(max_passes):
        improved = False
        for i in range(len(chain) - 1):
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
            cost = pass_through_cost(chain, atoms_by_group)
            if cost < best_cost:
                best_cost = cost
                improved = True
            else:
                chain[i], chain[i + 1] = chain[i + 1], chain[i]
        if not improved:
            break
    return chain


def block_extent_cost(
    order: Sequence[object], block_groups: Dict[object, FrozenSet[int]]
) -> int:
    """Total machine hops implied by a block (sequencing-node) ordering.

    Each group's messages traverse the contiguous run of blocks between
    the first and last block containing one of the group's atoms; every
    block in that run is one wide-area hop.  Lower is better.
    """
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for index, block in enumerate(order):
        for g in block_groups[block]:
            if g not in first:
                first[g] = index
            last[g] = index
    return sum(last[g] - first[g] + 1 for g in first)


def _improve_block_order(
    order: List[object],
    block_groups: Dict[object, FrozenSet[int]],
    max_passes: int = 6,
) -> List[object]:
    """Adjacent-swap hill climbing on the block-extent (machine-hop) cost."""
    order = list(order)
    best_cost = block_extent_cost(order, block_groups)
    for _ in range(max_passes):
        improved = False
        for i in range(len(order) - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            cost = block_extent_cost(order, block_groups)
            if cost < best_cost:
                best_cost = cost
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
        if not improved:
            break
    return order


# ---------------------------------------------------------------------------
# The sequencing graph
# ---------------------------------------------------------------------------


class SequencingGraph:
    """The arrangement of sequencing atoms satisfying C1 and C2.

    Build one from a membership snapshot with :meth:`build`, then query
    group paths and mutate with :meth:`add_group` / :meth:`remove_group`.

    Parameters
    ----------
    rng:
        Random source for (rare) tie-breaking; a fresh ``Random(0)`` when
        omitted, so default construction is deterministic.
    optimize:
        ``"greedy"`` (default) orders chains by group affinity;
        ``"local"`` additionally hill-climbs; ``"none"`` uses sorted order
        (useful to stress correctness independence from ordering).
    threshold:
        Minimum shared members for an overlap to be sequenced (paper: 2).
    """

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        optimize: str = "greedy",
        threshold: int = DOUBLE_OVERLAP_THRESHOLD,
    ):
        if optimize not in ("none", "greedy", "local"):
            raise ValueError(f"unknown optimize mode {optimize!r}")
        self._rng = rng or random.Random(0)
        self._optimize = optimize
        self._threshold = threshold
        self._group_members: Dict[int, FrozenSet[int]] = {}
        self.atoms: Dict[AtomId, AtomSpec] = {}
        self.chains: List[List[AtomId]] = []
        self.retired: Set[AtomId] = set()
        self._ingress_only: Dict[int, AtomId] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        snapshot: MembershipSnapshot,
        rng: Optional[random.Random] = None,
        optimize: str = "greedy",
        threshold: int = DOUBLE_OVERLAP_THRESHOLD,
    ) -> "SequencingGraph":
        """Construct the graph for a full membership snapshot."""
        graph = cls(rng=rng, optimize=optimize, threshold=threshold)
        graph._group_members = {g: frozenset(m) for g, m in snapshot.items()}
        overlaps = double_overlaps(snapshot, threshold=threshold)
        for (g, h), members in overlaps.items():
            atom_id = AtomId.overlap(g, h)
            graph.atoms[atom_id] = AtomSpec(atom_id, members)
        for cluster in overlap_clusters(overlaps.keys()):
            atom_ids = [AtomId.overlap(g, h) for g, h in cluster]
            graph.chains.append(graph._order_chain(atom_ids))
        for g in snapshot:
            if not any(AtomId.overlap(g, h) in graph.atoms for h in snapshot if h != g):
                graph._add_ingress_atom(g)
        return graph

    def _order_chain(self, atom_ids: List[AtomId]) -> List[AtomId]:
        if self._optimize == "none":
            return sorted(atom_ids)
        chain = _greedy_order(list(atom_ids), self._rng)
        if self._optimize == "local" and len(chain) > 2:
            chain = _improve_order(chain, self._atoms_by_group(atom_ids))
        return chain

    def _atoms_by_group(self, atom_ids: Iterable[AtomId]) -> Dict[int, List[AtomId]]:
        result: Dict[int, List[AtomId]] = {}
        for atom in atom_ids:
            for g in atom.groups:
                result.setdefault(g, []).append(atom)
        return result

    def _add_ingress_atom(self, group: int) -> AtomId:
        atom_id = AtomId.ingress(group)
        self.atoms[atom_id] = AtomSpec(atom_id, frozenset())
        self._ingress_only[group] = atom_id
        return atom_id

    def _drop_ingress_atom(self, group: int) -> None:
        atom_id = self._ingress_only.pop(group, None)
        if atom_id is not None:
            self.atoms.pop(atom_id, None)

    # -- queries ----------------------------------------------------------

    def groups(self) -> List[int]:
        """All groups the graph currently knows, sorted."""
        return sorted(self._group_members)

    def members(self, group: int) -> FrozenSet[int]:
        """Membership of ``group`` as the graph last saw it."""
        return self._group_members[group]

    def is_active(self, atom_id: AtomId) -> bool:
        """Whether the atom still assigns sequence numbers."""
        return atom_id in self.atoms and atom_id not in self.retired

    def overlap_atoms(self, include_retired: bool = False) -> List[AtomId]:
        """All overlap (non-ingress-only) atoms, sorted."""
        atoms = (a for a in self.atoms if not a.is_ingress_only)
        if not include_retired:
            atoms = (a for a in atoms if a not in self.retired)
        return sorted(atoms)

    def atoms_of_group(self, group: int) -> List[AtomId]:
        """Active overlap atoms that sequence ``group``, in chain order."""
        result: List[AtomId] = []
        for chain in self.chains:
            for atom in chain:
                if atom.sequences_group(group) and atom not in self.retired:
                    result.append(atom)
        return result

    def group_path(self, group: int) -> List[AtomId]:
        """Full sequence of atoms a message to ``group`` traverses.

        This is the contiguous chain segment from the group's first to its
        last atom — including pass-through and retired atoms in between —
        or the group's ingress-only atom when it has no double overlaps.
        """
        if group not in self._group_members:
            raise KeyError(f"unknown group {group}")
        for chain in self.chains:
            first = last = -1
            for index, atom in enumerate(chain):
                if group in atom.groups and atom not in self.retired:
                    if first < 0:
                        first = index
                    last = index
            if first >= 0:
                return chain[first : last + 1]
        return [self._ingress_only[group]]

    def ingress_atom(self, group: int) -> AtomId:
        """The atom that assigns ``group``'s group-local sequence numbers.

        By construction this is the first atom of the group's path (an
        atom that sequences the group, or the ingress-only atom).
        """
        return self.group_path(group)[0]

    def pass_through_atoms(self, group: int) -> List[AtomId]:
        """Atoms on the group's path that do not stamp its messages."""
        return [
            atom
            for atom in self.group_path(group)
            if not (atom.sequences_group(group) and atom not in self.retired)
        ]

    def edges(self) -> List[Tuple[AtomId, AtomId]]:
        """Undirected sequencing-graph edges (consecutive chain atoms)."""
        result: List[Tuple[AtomId, AtomId]] = []
        for chain in self.chains:
            result.extend(zip(chain, chain[1:]))
        return result

    def relevant_atoms_of(self, node: int) -> List[AtomId]:
        """Active atoms whose overlap contains ``node``.

        These are the atoms whose sequence numbers the node must respect at
        delivery (paper: "This sequencer is relevant for all nodes in
        G0 ∩ G1; the rest need only use the group-local sequence number").
        """
        return sorted(
            atom_id
            for atom_id, spec in self.atoms.items()
            if node in spec.overlap_members and atom_id not in self.retired
        )

    def reorder_for_colocation(self, block_of: Dict[AtomId, int]) -> None:
        """Reorder chains so co-located atoms sit on contiguous runs.

        ``block_of`` maps each overlap atom to its sequencing node (the
        co-location "block").  Chain order is pure efficiency (any
        permutation satisfies C1/C2), but message latency is dominated by
        wide-area hops between sequencing *nodes*; making each node's
        atoms contiguous and ordering the blocks by group affinity
        minimizes the machine hops a group's messages take.  Called by
        :func:`repro.core.placement.place` after co-location.
        """
        for index, chain in enumerate(self.chains):
            if len(chain) <= 2:
                continue
            block_atoms: Dict[int, List[AtomId]] = {}
            for atom in chain:
                block_atoms.setdefault(block_of[atom], []).append(atom)
            block_groups = {
                block: frozenset(g for atom in atoms for g in atom.groups)
                for block, atoms in block_atoms.items()
            }
            order = _greedy_order_items(block_groups)
            order = _improve_block_order(order, block_groups)
            new_chain: List[AtomId] = []
            for block in order:
                atoms = block_atoms[block]
                if len(atoms) > 2:
                    atoms = _greedy_order(atoms, self._rng)
                new_chain.extend(atoms)
            self.chains[index] = new_chain

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check C1, C2, and structural consistency; raise on violation."""
        seen: Set[AtomId] = set()
        for chain in self.chains:
            for atom in chain:
                if atom in seen:
                    raise GraphInvariantError(
                        f"C2 violated: atom {atom} appears in multiple chain "
                        "positions (graph has a loop or duplicate)"
                    )
                seen.add(atom)
                if atom not in self.atoms:
                    raise GraphInvariantError(f"chain references unknown atom {atom}")
        for atom_id, spec in self.atoms.items():
            if atom_id.is_ingress_only:
                continue
            if atom_id not in seen:
                raise GraphInvariantError(f"overlap atom {atom_id} is on no chain")
            if atom_id not in self.retired:
                g, h = atom_id.groups
                actual = self._group_members.get(g, frozenset()) & self._group_members.get(
                    h, frozenset()
                )
                if len(actual) < self._threshold:
                    raise GraphInvariantError(
                        f"atom {atom_id} is active but groups now share only "
                        f"{len(actual)} members"
                    )
        for group in self._group_members:
            chain_indices = {
                index
                for index, chain in enumerate(self.chains)
                for atom in chain
                if atom.sequences_group(group) and atom not in self.retired
            }
            if len(chain_indices) > 1:
                raise GraphInvariantError(
                    f"C1 violated: group {group} has atoms on {len(chain_indices)} "
                    "distinct chains"
                )
            if not chain_indices and group not in self._ingress_only:
                raise GraphInvariantError(f"group {group} has no ingress atom")

    def export_certificate(self, placement: Optional[object] = None) -> Dict:
        """Serialize the graph (and optionally a placement) for auditing.

        The result is a plain-JSON document in the
        ``repro-sequencing-graph-certificate`` format that
        :mod:`repro.check.graph_verify` re-proves C1/C2 and the ingress
        and placement invariants from — independently of this class's
        own :meth:`validate`.  Atom references are ``[kind, [groups]]``
        pairs so external tooling needs no knowledge of
        :class:`~repro.core.messages.AtomId`.

        ``placement`` duck-types anything with a ``nodes`` list of
        objects carrying ``node_id``/``machine``/``ingress_only``/
        ``atom_ids`` (i.e. :class:`~repro.core.placement.Placement`);
        it is serialized through its own ``export()`` when available.
        """

        def ref(atom_id: AtomId) -> List:
            return [atom_id.kind, list(atom_id.groups)]

        certificate: Dict = {
            "format": "repro-sequencing-graph-certificate",
            "version": 1,
            "threshold": self._threshold,
            "groups": {
                str(g): sorted(members)
                for g, members in sorted(self._group_members.items())
            },
            "atoms": [
                {
                    "kind": atom_id.kind,
                    "groups": list(atom_id.groups),
                    "overlap_members": sorted(spec.overlap_members),
                    "retired": atom_id in self.retired,
                }
                for atom_id, spec in sorted(self.atoms.items())
            ],
            "chains": [[ref(atom) for atom in chain] for chain in self.chains],
            "ingress_only": {
                str(g): ref(atom_id)
                for g, atom_id in sorted(self._ingress_only.items())
            },
        }
        if placement is not None:
            export = getattr(placement, "export", None)
            certificate["placement"] = (
                export() if callable(export) else placement
            )
        return certificate

    def clone(self) -> "SequencingGraph":
        """An independent copy sharing no mutable state.

        Used by live reconfiguration to derive the next epoch's graph
        incrementally while the previous fabric's graph stays intact.
        """
        copy = SequencingGraph(
            rng=random.Random(self._rng.random()),
            optimize=self._optimize,
            threshold=self._threshold,
        )
        copy._group_members = dict(self._group_members)
        copy.atoms = dict(self.atoms)
        copy.chains = [list(chain) for chain in self.chains]
        copy.retired = set(self.retired)
        copy._ingress_only = dict(self._ingress_only)
        return copy

    # -- dynamic operations --------------------------------------------------

    def add_group(self, group: int, members: Iterable[int]) -> List[AtomId]:
        """Add a group, instantiating atoms for its new double overlaps.

        Affected cluster chains are merged and the new atoms spliced in at
        cost-minimizing positions; existing atoms keep their relative order
        (low churn).  Returns the newly created atom ids.
        """
        if group in self._group_members:
            raise ValueError(f"group {group} already exists")
        member_set = frozenset(members)
        new_atoms: List[AtomId] = []
        for other, other_members in sorted(self._group_members.items()):
            intersection = member_set & other_members
            if len(intersection) >= self._threshold:
                atom_id = AtomId.overlap(group, other)
                if atom_id in self.atoms:
                    # Re-created after a lazy removal: drop the retired
                    # placeholder from its chain so the atom is inserted
                    # exactly once (a chain minus one vertex is still a
                    # path, so C1/C2 are unaffected).
                    self.retired.discard(atom_id)
                    for chain in self.chains:
                        if atom_id in chain:
                            chain.remove(atom_id)
                    self.chains = [chain for chain in self.chains if chain]
                self.atoms[atom_id] = AtomSpec(atom_id, intersection)
                new_atoms.append(atom_id)
                # The partner group no longer needs an ingress-only atom.
                self._drop_ingress_atom(other)
        self._group_members[group] = member_set

        if not new_atoms:
            self._add_ingress_atom(group)
            return []

        # Chains touched by the new atoms' partner groups must merge: the
        # new group's atoms must end up on a single chain (C1).
        partner_groups = {other for atom in new_atoms for other in atom.groups} - {
            group
        }
        merged: List[AtomId] = []
        untouched: List[List[AtomId]] = []
        for chain in self.chains:
            if any(not partner_groups.isdisjoint(atom.groups) for atom in chain):
                merged.extend(chain)
            else:
                untouched.append(chain)
        # One exact O(chain + groups) slot search per new atom; siblings
        # still to be inserted are not on the chain yet and so, as under
        # pass_through_cost, weigh nothing.
        for atom in sorted(new_atoms):
            merged.insert(_best_slot(merged, atom), atom)
        untouched.append(merged)
        self.chains = untouched
        return new_atoms

    def remove_group(self, group: int, lazy: bool = True) -> List[AtomId]:
        """Remove a group; retire or splice out its atoms.

        With ``lazy=True`` (the paper's default behaviour) the group's atoms
        stay on their chains as retired pass-through placeholders — stale
        sequence spaces cost only efficiency.  With ``lazy=False`` the atoms
        are spliced out and any cluster that falls apart is re-split into
        separate chains (preserving relative atom order).  Returns the atoms
        that were retired/removed.
        """
        if group not in self._group_members:
            raise KeyError(f"unknown group {group}")
        del self._group_members[group]
        self._drop_ingress_atom(group)

        affected = [
            atom_id
            for atom_id in list(self.atoms)
            if not atom_id.is_ingress_only and atom_id.sequences_group(group)
        ]
        partner_groups: Set[int] = set()
        for atom_id in affected:
            partner_groups.update(atom_id.groups)
        partner_groups.discard(group)

        if lazy:
            self.retired.update(affected)
        else:
            for atom_id in affected:
                self.atoms.pop(atom_id, None)
                self.retired.discard(atom_id)
            self._splice_and_resplit(set(affected))
        # Partner groups left with no active atoms revert to ingress-only.
        for partner in sorted(partner_groups):
            if partner in self._group_members and not self.atoms_of_group(partner):
                if partner not in self._ingress_only:
                    self._add_ingress_atom(partner)
        return affected

    def compact(self) -> List[AtomId]:
        """Eagerly drop all retired atoms (paper: lazy removal catch-up).

        Returns the atoms removed.  Equivalent to the sequencers inspecting
        a termination (FIN) message and retiring by splicing themselves out
        of the forwarding paths.
        """
        removed = sorted(self.retired)
        for atom_id in removed:
            self.atoms.pop(atom_id, None)
        self.retired.clear()
        self._splice_and_resplit(set(removed))
        return removed

    def _splice_and_resplit(self, removed: Set[AtomId]) -> None:
        """Drop ``removed`` atoms from chains and re-split broken clusters."""
        new_chains: List[List[AtomId]] = []
        for chain in self.chains:
            remaining = [atom for atom in chain if atom not in removed]
            if not remaining:
                continue
            # The spliced chain stays one path, but its atoms may no longer
            # form one conflict cluster; split while preserving order so
            # in-flight relative orders stay meaningful per segment.
            pairs = [tuple(atom.groups) for atom in remaining]
            clusters = overlap_clusters(pairs)
            if len(clusters) <= 1:
                new_chains.append(remaining)
                continue
            cluster_index = {
                pair: index for index, cluster in enumerate(clusters) for pair in cluster
            }
            split: Dict[int, List[AtomId]] = {}
            for atom in remaining:
                split.setdefault(cluster_index[tuple(atom.groups)], []).append(atom)
            new_chains.extend(split[index] for index in sorted(split))
        self.chains = new_chains

    def __repr__(self) -> str:
        active = len(self.atoms) - len(self.retired)
        return (
            f"<SequencingGraph groups={len(self._group_members)} "
            f"atoms={active} retired={len(self.retired)} chains={len(self.chains)}>"
        )
