"""Smoke tests for the figure-reproduction experiment harness.

Each figure runs with tiny parameters (few hosts, few runs) to keep the
suite fast; the full-parameter runs live in benchmarks/.  The assertions
check the *structure* of each experiment's output and the coarse shape
properties that must hold at any scale.
"""

import pytest

from repro.experiments import fig3_latency_stretch as fig3
from repro.experiments import fig4_rdp as fig4
from repro.experiments import fig5_sequencing_nodes as fig5
from repro.experiments import fig6_stress as fig6
from repro.experiments import fig7_atoms_on_path as fig7
from repro.experiments import fig8_occupancy as fig8
from repro.experiments.common import ExperimentEnv, format_table
from repro.experiments.runner import run_selected


@pytest.fixture(scope="module")
def env():
    return ExperimentEnv(n_hosts=32, seed=0)


def test_fig3_structure(env):
    results = fig3.run_fig3(env, group_counts=(4, 8))
    assert set(results) == {4, 8}
    for values in results.values():
        assert values
        assert all(v > 0 for v in values)
        assert values == sorted(values)
    assert "Figure 3" in fig3.render(results)


def test_fig4_structure(env):
    points = fig4.run_fig4(env, n_groups=8)
    assert points
    assert all(delay > 0 and rdp > 0 for delay, rdp in points)
    table = fig4.render(points)
    assert "Figure 4" in table


def test_fig4_close_pairs_pay_most(env):
    points = fig4.run_fig4(env, n_groups=8)
    rows = fig4.bin_points(points, n_bins=4)
    assert rows[0][4] >= rows[-1][4]  # max RDP in closest bin >= farthest


def test_fig5_structure(env):
    results = fig5.run_fig5(env, group_counts=(2, 8), runs=3)
    assert set(results) == {2, 8}
    assert all(len(counts) == 3 for counts in results.values())
    assert "Figure 5" in fig5.render(results)


def test_fig5_nodes_grow_with_groups(env):
    results = fig5.run_fig5(env, group_counts=(2, 16), runs=5)
    mean = lambda v: sum(v) / len(v)
    assert mean(results[16]) >= mean(results[2])


def test_fig6_structure(env):
    results = fig6.run_fig6(env, group_counts=(4, 8), runs=3)
    for values in results.values():
        assert all(0 <= v <= 1 for v in values)
    assert "Figure 6" in fig6.render(results)


def test_fig6_stress_declines_with_groups(env):
    results = fig6.run_fig6(env, group_counts=(2, 16), runs=5)
    mean = lambda v: sum(v) / len(v) if v else 0
    assert mean(results[16]) <= mean(results[2])


def test_fig7_structure(env):
    results = fig7.run_fig7(env, group_counts=(4, 8), runs=3)
    for values in results.values():
        assert all(0 <= v < 1 for v in values)
    assert "Figure 7" in fig7.render(results)


def test_fig7_worst_case_below_half(env):
    results = fig7.run_fig7(env, group_counts=(8,), runs=5)
    assert max(results[8]) < 0.5


def test_fig8_structure(env):
    results = fig8.run_fig8(env, n_groups=8, occupancies=(0.1, 0.5, 1.0), runs=2)
    assert set(results) == {0.1, 0.5, 1.0}
    assert "Figure 8" in fig8.render(results)


def test_fig8_full_occupancy_one_node(env):
    results = fig8.run_fig8(env, n_groups=8, occupancies=(1.0,), runs=1)
    overlaps, nodes = results[1.0]
    assert overlaps == 8 * 7 / 2  # all pairs fully overlap
    assert nodes == 1  # subset rule collapses everything


def test_fig8_overlaps_monotone_in_occupancy(env):
    results = fig8.run_fig8(env, n_groups=8, occupancies=(0.1, 0.9), runs=3)
    assert results[0.9][0] >= results[0.1][0]


def test_runner_subset(env):
    report = run_selected(["5", "7"], runs=2, paper_scale=False, n_hosts=16)
    assert "Figure 5" in report
    assert "Figure 7" in report
    assert "Figure 3" not in report


def test_format_table_alignment():
    table = format_table(["a", "long_header"], [[1, 2.5], [10, 3.25]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert "2.500" in table
