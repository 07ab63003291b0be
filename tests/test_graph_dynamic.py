"""Unit tests for dynamic sequencing-graph maintenance (Section 3.2 ops)."""

import random

import pytest

from repro.core.messages import AtomId
from repro.core.sequencing_graph import SequencingGraph


def build(snapshot, **kwargs):
    return SequencingGraph.build(
        {g: frozenset(m) for g, m in snapshot.items()}, **kwargs
    )


def test_add_first_group_creates_ingress():
    graph = SequencingGraph()
    created = graph.add_group(0, {1, 2, 3})
    assert created == []
    assert graph.group_path(0) == [AtomId.ingress(0)]


def test_add_overlapping_group_creates_atom():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    created = graph.add_group(1, {2, 3, 4})
    assert created == [AtomId.overlap(0, 1)]
    graph.validate()


def test_add_group_drops_partner_ingress():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    assert AtomId.ingress(0) not in graph.atoms
    assert AtomId.ingress(1) not in graph.atoms


def test_add_group_without_overlap_gets_ingress():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2})
    graph.add_group(1, {8, 9})
    assert graph.group_path(1) == [AtomId.ingress(1)]


def test_add_duplicate_group_rejected():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2})
    with pytest.raises(ValueError):
        graph.add_group(0, {3, 4})


def test_incremental_equals_batch_atoms():
    snapshot = {
        0: {0, 1, 2, 3},
        1: {2, 3, 4, 5},
        2: {4, 5, 0, 1},
        3: {6, 7},
    }
    batch = build(snapshot)
    incremental = SequencingGraph()
    for g, members in snapshot.items():
        incremental.add_group(g, members)
    incremental.validate()
    assert set(batch.atoms) == set(incremental.atoms)


def test_add_group_merges_clusters():
    graph = SequencingGraph()
    graph.add_group(0, {0, 1})
    graph.add_group(1, {0, 1})  # cluster A
    graph.add_group(2, {8, 9})
    graph.add_group(3, {8, 9})  # cluster B
    assert len(graph.chains) == 2
    # A group overlapping both clusters merges them.
    graph.add_group(4, {0, 1, 8, 9})
    graph.validate()
    assert len(graph.chains) == 1


def test_add_group_never_costs_whole_candidate_chains(monkeypatch):
    # 15 groups sharing two members: one cluster of 105 atoms.  Picking a
    # slot must not fall back to costing every candidate chain.
    def forbidden(*args, **kwargs):
        raise AssertionError("add_group called pass_through_cost")

    graph = build({g: {0, 1, 10 + g} for g in range(15)})
    assert [len(chain) for chain in graph.chains] == [105]
    monkeypatch.setattr("repro.core.sequencing_graph.pass_through_cost", forbidden)
    created = graph.add_group(99, {0, 1})
    assert len(created) == 15
    assert [len(chain) for chain in graph.chains] == [120]
    graph.validate()


def test_add_group_preserves_existing_relative_order():
    rng = random.Random(2)
    snapshot = {g: set(rng.sample(range(24), 8)) for g in range(6)}
    graph = build(snapshot)
    before = list(graph.chains[0]) if graph.chains else []
    graph.add_group(99, set(rng.sample(range(24), 10)))
    graph.validate()
    after_chain = None
    for chain in graph.chains:
        if all(a in chain for a in before):
            after_chain = chain
            break
    if before and after_chain is not None:
        positions = [after_chain.index(a) for a in before]
        assert positions == sorted(positions)


def test_remove_group_lazy_retires_atoms():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    retired = graph.remove_group(0, lazy=True)
    assert retired == [AtomId.overlap(0, 1)]
    assert AtomId.overlap(0, 1) in graph.retired
    # The atom stays on its chain as a placeholder.
    assert AtomId.overlap(0, 1) in graph.chains[0]
    graph.validate()


def test_remove_group_lazy_partner_regains_ingress():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    graph.remove_group(0, lazy=True)
    assert graph.group_path(1) == [AtomId.ingress(1)]


def test_remove_group_eager_splices():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    graph.remove_group(0, lazy=False)
    assert AtomId.overlap(0, 1) not in graph.atoms
    assert all(AtomId.overlap(0, 1) not in chain for chain in graph.chains)
    graph.validate()


def test_remove_missing_group_rejected():
    graph = SequencingGraph()
    with pytest.raises(KeyError):
        graph.remove_group(5)


def test_remove_group_splits_cluster():
    # Groups 0-1 and 2-3 joined only through group 4.
    graph = SequencingGraph()
    graph.add_group(0, {0, 1})
    graph.add_group(1, {0, 1})
    graph.add_group(2, {8, 9})
    graph.add_group(3, {8, 9})
    graph.add_group(4, {0, 1, 8, 9})
    assert len(graph.chains) == 1
    graph.remove_group(4, lazy=False)
    graph.validate()
    assert len(graph.chains) == 2


def test_compact_drops_retired():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    graph.remove_group(0, lazy=True)
    removed = graph.compact()
    assert removed == [AtomId.overlap(0, 1)]
    assert not graph.retired
    assert AtomId.overlap(0, 1) not in graph.atoms
    graph.validate()


def test_retired_atoms_excluded_from_group_queries():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    graph.add_group(2, {1, 2, 4})
    graph.remove_group(2, lazy=True)
    assert graph.atoms_of_group(0) == [AtomId.overlap(0, 1)]
    assert AtomId.overlap(0, 2) not in graph.relevant_atoms_of(1)


def test_membership_change_as_remove_add():
    # The paper's model: change = remove old group + add new membership.
    graph = SequencingGraph()
    graph.add_group(0, {1, 2, 3})
    graph.add_group(1, {2, 3, 4})
    graph.remove_group(1, lazy=False)
    graph.add_group(1, {1, 2, 5})
    graph.validate()
    assert AtomId.overlap(0, 1) in graph.atoms
    assert graph.atoms[AtomId.overlap(0, 1)].overlap_members == frozenset({1, 2})


def test_churn_sequence_keeps_invariants():
    rng = random.Random(4)
    graph = SequencingGraph()
    live = {}
    next_id = 0
    for step in range(60):
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            graph.remove_group(victim, lazy=rng.random() < 0.5)
            del live[victim]
        else:
            members = set(rng.sample(range(20), rng.randint(2, 8)))
            graph.add_group(next_id, members)
            live[next_id] = members
            next_id += 1
        graph.validate()


def test_repr_smoke():
    graph = SequencingGraph()
    graph.add_group(0, {1, 2})
    assert "groups=1" in repr(graph)
