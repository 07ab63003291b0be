"""Tests for the metrics layer (stats, stretch, stress, overhead)."""

import random

import pytest

from repro.core.messages import ATOM_ENTRY_BYTES, HEADER_BYTES, vector_timestamp_bytes
from repro.core.sequencing_graph import SequencingGraph
from repro.metrics.overhead import stamp_overhead_bytes
from repro.metrics.stats import cdf, percentile, summarize
from repro.metrics.stress import (
    atoms_on_path_ratios,
    double_overlap_count,
    node_stress,
    sequencing_node_count,
)
from repro.metrics.stretch import latency_stretch_by_destination, rdp_by_pair
from repro.pubsub.membership import GroupMembership

# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_percentile_interpolation():
    assert percentile([0, 10], 50) == pytest.approx(5.0)
    assert percentile([1, 2, 3, 4], 100) == 4


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_cdf_points():
    points = cdf([3.0, 1.0, 2.0])
    assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]


def test_cdf_empty():
    assert cdf([]) == []


def test_summarize_fields():
    stats = summarize([1, 2, 3, 4, 5])
    assert stats["mean"] == 3
    assert stats["min"] == 1
    assert stats["max"] == 5
    assert stats["p50"] == 3


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------------------
# graph-derived metrics
# ---------------------------------------------------------------------------


def triangle_graph():
    return SequencingGraph.build(
        {0: frozenset({0, 1, 3}), 1: frozenset({0, 1, 2}), 2: frozenset({1, 2, 3})}
    )


def test_double_overlap_count():
    assert double_overlap_count(triangle_graph()) == 3


def test_double_overlap_count_excludes_retired():
    graph = triangle_graph()
    graph.remove_group(2, lazy=True)
    assert double_overlap_count(graph) == 1


def test_atoms_on_path_ratios():
    graph = triangle_graph()
    ratios = atoms_on_path_ratios(graph, n_hosts=4)
    assert len(ratios) == 3
    assert all(r == pytest.approx(2 / 4) for r in ratios)


def test_atoms_on_path_rejects_zero_hosts():
    with pytest.raises(ValueError):
        atoms_on_path_ratios(triangle_graph(), 0)


def test_node_stress_and_counts(env32):
    import random as _random

    from repro.workloads.zipf import zipf_membership

    snapshot = zipf_membership(32, 8, rng=_random.Random(0))
    graph = env32.build_graph(snapshot)
    placement = env32.build_placement(graph, machines=False)
    stresses = node_stress(graph, placement)
    assert len(stresses) == sequencing_node_count(placement)
    assert all(0 < s <= 1 for s in stresses)


def test_node_stress_empty_graph():
    graph = SequencingGraph()
    from repro.core.placement import Placement, co_locate_atoms

    placement = Placement(co_locate_atoms(graph))
    assert node_stress(graph, placement) == []


def test_scalability_bound_nodes_vs_receivers(env32):
    """Sequencing-node group load tracks the busiest receiver's load.

    The paper's Section 4.3 bound: a node's groups share members, so a
    member's subscription count bounds the node's load.  Our co-location
    families guarantee pairwise chained intersections rather than one
    common member, so the bound holds up to a small constant (<= 2x on
    these workloads; see EXPERIMENTS.md).
    """
    from repro.workloads.zipf import zipf_membership

    for seed in range(5):
        snapshot = zipf_membership(32, 8, rng=random.Random(seed))
        membership = env32.membership_from(snapshot)
        graph = env32.build_graph(snapshot, seed=seed)
        placement = env32.build_placement(graph, seed=seed, machines=False)
        # Groups each node forwards, and the most groups one member joins.
        groups = len(graph.groups())
        loads = [round(s * groups) for s in node_stress(graph, placement)]
        receiver_load = max(len(membership.groups_of(n)) for n in membership.nodes())
        if loads:
            assert max(loads) <= 2 * receiver_load


# ---------------------------------------------------------------------------
# overhead
# ---------------------------------------------------------------------------


def test_stamp_overhead_by_group():
    graph = triangle_graph()
    overhead = stamp_overhead_bytes(graph)
    assert set(overhead) == {0, 1, 2}
    assert all(v > 0 for v in overhead.values())


def test_worst_case_entries():
    worst = max(stamp_overhead_bytes(triangle_graph()).values())
    assert worst == HEADER_BYTES + 2 * ATOM_ENTRY_BYTES
    assert stamp_overhead_bytes(SequencingGraph()) == {}


def test_overhead_ratio_beats_vector_with_many_nodes():
    worst = max(stamp_overhead_bytes(triangle_graph()).values())
    assert worst < vector_timestamp_bytes(128)


# ---------------------------------------------------------------------------
# latency metrics (on a tiny simulated run)
# ---------------------------------------------------------------------------


@pytest.fixture()
def run_fabric(env32):
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    fabric = env32.build_fabric(membership)
    env32.run_one_message_per_membership(fabric)
    return fabric


def test_latency_stretch_positive(run_fabric):
    stretch = latency_stretch_by_destination(run_fabric)
    assert stretch
    assert all(v > 0 for v in stretch.values())


def test_latency_stretch_indexed_by_destination(run_fabric):
    stretch = latency_stretch_by_destination(run_fabric)
    members = {0, 1, 2, 3, 4, 5}
    assert set(stretch) <= members


def test_rdp_points_have_positive_delay(run_fabric):
    points = rdp_by_pair(run_fabric)
    assert points
    assert all(delay > 0 and rdp > 0 for delay, rdp in points)


def test_rdp_one_point_per_pair(run_fabric):
    points = rdp_by_pair(run_fabric)
    # 6 distinct members; each (sender, dest) pair contributes one point
    # even when it exchanged several messages (hosts 2,3 are in both
    # groups), so the count is bounded by the number of pairs.
    assert 0 < len(points) <= 6 * 6
