"""Unit tests for double-overlap analysis."""

import pytest

from repro.core.overlaps import double_overlaps, overlap_clusters


def snap(**groups):
    """Helper: snap(g0=[1,2], g1=[2,3]) -> {0: fs, 1: fs}."""
    return {int(k[1:]): frozenset(v) for k, v in groups.items()}


def test_shared_pair_detected():
    result = double_overlaps(snap(g0=[1, 2, 3], g1=[2, 3, 4]))
    assert result == {(0, 1): frozenset({2, 3})}


def test_single_shared_member_not_double():
    assert double_overlaps(snap(g0=[1, 2], g1=[2, 3])) == {}


def test_disjoint_groups_no_overlap():
    assert double_overlaps(snap(g0=[1, 2], g1=[3, 4])) == {}


def test_threshold_one_counts_single_overlap():
    result = double_overlaps(snap(g0=[1, 2], g1=[2, 3]), threshold=1)
    assert result == {(0, 1): frozenset({2})}


def test_threshold_zero_rejected():
    with pytest.raises(ValueError):
        double_overlaps({}, threshold=0)


def test_pair_keys_sorted():
    result = double_overlaps(snap(g5=[1, 2], g2=[1, 2]))
    assert list(result) == [(2, 5)]


def test_full_intersection_returned():
    result = double_overlaps(snap(g0=[1, 2, 3, 4], g1=[2, 3, 4, 5]))
    assert result[(0, 1)] == frozenset({2, 3, 4})


def test_triangle_example():
    # The paper's Figure 2: three groups, three pairwise double overlaps.
    result = double_overlaps(
        snap(g0=[0, 1, 3], g1=[0, 1, 2], g2=[1, 2, 3])
    )
    assert set(result) == {(0, 1), (0, 2), (1, 2)}
    assert result[(0, 1)] == frozenset({0, 1})
    assert result[(0, 2)] == frozenset({1, 3})
    assert result[(1, 2)] == frozenset({1, 2})


def test_identical_groups_fully_overlap():
    result = double_overlaps(snap(g0=[1, 2, 3], g1=[1, 2, 3]))
    assert result[(0, 1)] == frozenset({1, 2, 3})


def test_many_groups_quadratic_pairs():
    groups = {g: frozenset({1, 2}) for g in range(6)}
    result = double_overlaps(groups)
    assert len(result) == 15  # C(6,2)


def test_empty_snapshot():
    assert double_overlaps({}) == {}


# ---------------------------------------------------------------------------
# Clusters
# ---------------------------------------------------------------------------


def test_clusters_of_disjoint_pairs():
    clusters = overlap_clusters([(0, 1), (2, 3)])
    assert clusters == [[(0, 1)], [(2, 3)]]


def test_clusters_merge_on_shared_group():
    clusters = overlap_clusters([(0, 1), (1, 2)])
    assert clusters == [[(0, 1), (1, 2)]]


def test_clusters_transitive_merge():
    clusters = overlap_clusters([(0, 1), (1, 2), (2, 3), (5, 6)])
    assert len(clusters) == 2
    assert [(5, 6)] in clusters


def test_group_atoms_always_one_cluster():
    # All pairs containing group 0 must land in a single cluster.
    pairs = [(0, g) for g in range(1, 8)]
    assert len(overlap_clusters(pairs)) == 1


def test_clusters_deterministic_order():
    pairs = [(3, 4), (0, 1), (1, 2)]
    assert overlap_clusters(pairs) == overlap_clusters(list(reversed(pairs)))


def test_clusters_empty():
    assert overlap_clusters([]) == []
