"""Property-based tests (hypothesis) for the core invariants.

These encode the DESIGN.md invariant list: C1/C2 on arbitrary
memberships, total order per receiver pair, delivery liveness, stamp
bounds, and workload generator properties.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.delivery import DeliveryState
from repro.core.messages import AtomId, Stamp
from repro.core.overlaps import double_overlaps, overlap_clusters
from repro.core.sequencing_graph import (
    SequencingGraph,
    _best_slot,
    pass_through_cost,
)
from repro.workloads.occupancy import occupancy_membership
from repro.workloads.zipf import zipf_group_sizes

# A membership snapshot: up to 8 groups over up to 16 hosts, sizes >= 2.
memberships = st.dictionaries(
    keys=st.integers(min_value=0, max_value=7),
    values=st.frozensets(st.integers(min_value=0, max_value=15), min_size=2, max_size=16),
    min_size=1,
    max_size=8,
)

loose_settings = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


# ---------------------------------------------------------------------------
# Overlap analysis
# ---------------------------------------------------------------------------


@given(memberships)
@loose_settings
def test_double_overlaps_are_correct(snapshot):
    result = double_overlaps(snapshot)
    # Soundness: every reported pair truly shares >= 2 members.
    for (g, h), members in result.items():
        assert members == snapshot[g] & snapshot[h]
        assert len(members) >= 2
        assert g < h
    # Completeness: every qualifying pair is reported.
    for g, h in itertools.combinations(sorted(snapshot), 2):
        if len(snapshot[g] & snapshot[h]) >= 2:
            assert (g, h) in result


@given(memberships)
@loose_settings
def test_overlap_clusters_partition(snapshot):
    pairs = list(double_overlaps(snapshot))
    clusters = overlap_clusters(pairs)
    flattened = [p for cluster in clusters for p in cluster]
    assert sorted(flattened) == sorted(pairs)
    # Groups never straddle clusters.
    group_cluster = {}
    for index, cluster in enumerate(clusters):
        for g, h in cluster:
            for group in (g, h):
                assert group_cluster.setdefault(group, index) == index


# ---------------------------------------------------------------------------
# Sequencing graph invariants (C1 / C2)
# ---------------------------------------------------------------------------


@given(memberships)
@loose_settings
def test_graph_invariants_hold(snapshot):
    graph = SequencingGraph.build(snapshot)
    graph.validate()
    # C2: the undirected sequencing graph is a forest (chains are paths).
    atoms_in_chains = [a for chain in graph.chains for a in chain]
    assert len(atoms_in_chains) == len(set(atoms_in_chains))
    # C1: each group's atoms form a contiguous-by-construction path.
    for group in snapshot:
        path = graph.group_path(group)
        assert path, f"group {group} has no path"
        own = [
            a
            for a in path
            if a.sequences_group(group)
            and graph.is_active(a)
            and not a.is_ingress_only
        ]
        assert own == graph.atoms_of_group(group)
        if own:
            assert path[0] == own[0]
            assert path[-1] == own[-1]
        else:
            assert path == [AtomId.ingress(group)]


@given(memberships)
@loose_settings
def test_stamp_entries_bounded_by_groups(snapshot):
    graph = SequencingGraph.build(snapshot)
    n_groups = len(snapshot)
    for group in snapshot:
        # A group can double-overlap at most each other group.
        assert len(graph.atoms_of_group(group)) <= n_groups - 1


@given(memberships)
@loose_settings
def test_every_relevant_atom_on_both_group_paths(snapshot):
    graph = SequencingGraph.build(snapshot)
    for atom in graph.overlap_atoms():
        g, h = atom.groups
        assert atom in graph.group_path(g)
        assert atom in graph.group_path(h)


@given(memberships, memberships)
@loose_settings
def test_dynamic_add_remove_keeps_invariants(base, extra):
    graph = SequencingGraph.build(base)
    offset = 100
    for group, members in sorted(extra.items()):
        graph.add_group(group + offset, members)
        graph.validate()
    for group in sorted(extra):
        graph.remove_group(group + offset, lazy=(group % 2 == 0))
        graph.validate()
    graph.compact()
    graph.validate()
    # The surviving groups are exactly the base ones.
    assert graph.groups() == sorted(base)


def by_group(atoms):
    result = {}
    for atom in atoms:
        for g in atom.groups:
            result.setdefault(g, []).append(atom)
    return result


@given(memberships)
@loose_settings
def test_chain_order_cost_nonnegative(snapshot):
    graph = SequencingGraph.build(snapshot)
    for chain in graph.chains:
        assert pass_through_cost(chain, by_group(chain)) >= 0


def quadratic_insertion(chain, atom, atoms_by_group):
    """Reference slot search: cost every candidate chain, keep the first
    minimum.  This is the O(n^2) search ``_best_slot`` replaced, kept as
    its oracle."""
    best_chain = None
    best_cost = None
    for position in range(len(chain) + 1):
        candidate = chain[:position] + [atom] + chain[position:]
        cost = pass_through_cost(candidate, atoms_by_group)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_chain = candidate
    return best_chain


ALL_PAIRS = [AtomId.overlap(g, h) for g, h in itertools.combinations(range(8), 2)]


@given(
    st.permutations(ALL_PAIRS),
    st.integers(min_value=0, max_value=len(ALL_PAIRS) - 1),
    st.integers(min_value=0, max_value=6),
)
@loose_settings
def test_best_slot_matches_quadratic_reference(atoms, length, siblings):
    """Arbitrary chain orders, and siblings the cost map already lists but
    the chain does not hold yet (``add_group`` inserts one at a time)."""
    chain, atom = atoms[:length], atoms[length]
    later = atoms[length + 1 : length + 1 + siblings]
    slot = _best_slot(chain, atom)
    assert chain[:slot] + [atom] + chain[slot:] == quadratic_insertion(
        chain, atom, by_group(chain + [atom] + later)
    )


@given(
    memberships,
    st.sets(st.integers(min_value=0, max_value=7)),
    st.frozensets(st.integers(min_value=0, max_value=15), min_size=2, max_size=16),
)
@loose_settings
def test_add_group_matches_quadratic_reference(base, leavers, members):
    """Through ``add_group`` itself, with lazily retired placeholders
    still holding positions on the chains the new atoms land in."""
    graph = SequencingGraph.build(base)
    for group in sorted(leavers & set(base)):
        graph.remove_group(group, lazy=True)
    new_atoms = graph.add_group(100, members)
    if not new_atoms:
        return
    (landed,) = [chain for chain in graph.chains if new_atoms[0] in chain]
    # Insertion keeps the relative order of what was there before.
    expected = [atom for atom in landed if atom not in new_atoms]
    cost_map = by_group(expected + new_atoms)
    for atom in sorted(new_atoms):
        expected = quadratic_insertion(expected, atom, cost_map)
    assert landed == expected


# ---------------------------------------------------------------------------
# Delivery state: total order per receiver
# ---------------------------------------------------------------------------


@given(st.permutations(list(range(1, 9))))
@loose_settings
def test_any_arrival_order_delivers_in_sequence(arrival):
    """A single group's messages deliver in group-seq order regardless of
    arrival permutation (buffering reconstructs the order)."""
    state = DeliveryState(0, groups=[0], relevant_atoms=[])
    delivered = []
    for seq in arrival:
        for stamp, _ in state.on_receive(Stamp(0, seq)):
            delivered.append(stamp.group_seq)
    assert delivered == sorted(arrival)
    assert state.pending == 0


@given(
    st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=20)
)
@loose_settings
def test_two_group_interleaving_consistent(script):
    """Two receivers fed the same stamp stream deliver identically."""
    q = AtomId.overlap(0, 1)
    seqs = {0: 0, 1: 0}
    atom_seq = 0
    stamps = []
    for group, _ in script:
        seqs[group] += 1
        atom_seq += 1
        stamps.append(Stamp(group, seqs[group], ((q, atom_seq),)))
    a = DeliveryState(0, groups=[0, 1], relevant_atoms=[q])
    b = DeliveryState(1, groups=[0, 1], relevant_atoms=[q])
    out_a = [s.group_seq for stamp in stamps for s, _ in a.on_receive(stamp)]
    out_b = [s.group_seq for stamp in stamps for s, _ in b.on_receive(stamp)]
    assert out_a == out_b
    assert a.pending == b.pending == 0


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=4, max_value=256),
    st.integers(min_value=1, max_value=64),
)
@loose_settings
def test_zipf_sizes_valid(n_hosts, n_groups):
    sizes = zipf_group_sizes(n_hosts, n_groups)
    assert len(sizes) == n_groups
    assert all(2 <= s <= n_hosts for s in sizes)
    assert sizes == sorted(sizes, reverse=True)


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1000),
)
@loose_settings
def test_occupancy_membership_valid(n_hosts, n_groups, occupancy, seed):
    import random

    snapshot = occupancy_membership(n_hosts, n_groups, occupancy, rng=random.Random(seed))
    assert len(snapshot) <= n_groups
    for members in snapshot.values():
        assert members
        assert all(0 <= m < n_hosts for m in members)
