"""Tests for the analysis package and the CLI."""

import pytest

from repro.analysis.graphviz import placement_to_dot, sequencing_graph_to_dot
from repro.analysis.report import analyze
from repro.cli import main as cli_main
from repro.core.placement import Placement, co_locate_and_order
from repro.core.sequencing_graph import SequencingGraph


def triangle_graph():
    return SequencingGraph.build(
        {0: frozenset({0, 1, 3}), 1: frozenset({0, 1, 2}), 2: frozenset({1, 2, 3})}
    )


# ---------------------------------------------------------------------------
# analyze / GraphReport
# ---------------------------------------------------------------------------


def test_report_counts():
    graph = triangle_graph()
    report = analyze(graph)
    assert report.groups == 3
    assert report.overlap_atoms == 3
    assert report.chains == 1
    assert report.longest_chain == 3
    assert report.max_stamp_entries == 2
    assert report.stamp_bound_holds


def test_report_group_profiles():
    graph = triangle_graph()
    report = analyze(graph)
    profiles = {p.group: p for p in report.group_profiles}
    assert set(profiles) == {0, 1, 2}
    assert sum(p.pass_through_atoms for p in profiles.values()) == 1
    assert all(p.own_atoms == 2 for p in profiles.values())


def test_report_overhead_fraction():
    graph = triangle_graph()
    report = analyze(graph)
    # The share of a group's path that is pass-through (pure overhead).
    worst = max(p.pass_through_atoms / p.path_atoms for p in report.group_profiles)
    assert worst == pytest.approx(1 / 3)


def test_report_with_placement():
    graph = triangle_graph()
    placement = Placement(co_locate_and_order(graph))
    report = analyze(graph, placement)
    assert report.sequencing_nodes >= 1
    assert report.mean_stress is not None
    assert all(p.machine_hops is not None for p in report.group_profiles)


def test_report_counts_retired():
    graph = triangle_graph()
    graph.remove_group(2, lazy=True)
    report = analyze(graph)
    assert report.retired_atoms == 2
    assert report.overlap_atoms == 1


def test_report_str():
    text = str(analyze(triangle_graph()))
    assert "groups:" in text
    assert "overlap atoms:" in text


def test_report_empty_graph():
    report = analyze(SequencingGraph())
    assert report.groups == 0
    assert report.longest_chain == 0
    assert report.stamp_bound_holds


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_graph_dot_structure():
    graph = triangle_graph()
    dot = sequencing_graph_to_dot(graph)
    assert dot.startswith("graph sequencing {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 2  # chain of 3 atoms -> 2 edges


def test_graph_dot_highlight():
    graph = triangle_graph()
    group = graph.groups()[0]
    dot = sequencing_graph_to_dot(graph, highlight_group=group)
    assert "lightblue" in dot


def test_graph_dot_retired_dashed():
    graph = triangle_graph()
    graph.remove_group(0, lazy=True)
    assert "style=dashed" in sequencing_graph_to_dot(graph)


def test_graph_dot_ingress_box():
    graph = SequencingGraph.build({0: frozenset({1, 2})})
    assert "shape=box" in sequencing_graph_to_dot(graph)


def test_placement_dot_clusters():
    graph = triangle_graph()
    placement = Placement(co_locate_and_order(graph))
    dot = placement_to_dot(graph, placement)
    assert "subgraph cluster_0" in dot
    assert dot.count(" -- ") == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_demo(capsys):
    assert cli_main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "agree on order: True" in out


def test_cli_analyze(capsys, tmp_path):
    dot_path = tmp_path / "placement.dot"
    graph_dot = tmp_path / "graph.dot"
    code = cli_main(
        [
            "analyze",
            "--hosts", "16",
            "--groups", "4",
            "--dot", str(dot_path),
            "--graph-dot", str(graph_dot),
        ]
    )
    assert code == 0
    assert dot_path.read_text().startswith("graph placement {")
    assert graph_dot.read_text().startswith("graph sequencing {")
    assert "groups:" in capsys.readouterr().out


def test_cli_workload_roundtrip(capsys, tmp_path):
    path = tmp_path / "w.json"
    assert cli_main(
        ["workload", "record", str(path), "--hosts", "16", "--groups", "4",
         "--events", "10"]
    ) == 0
    assert cli_main(["workload", "replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pairwise order violations: 0" in out


def test_cli_figures_passthrough(capsys):
    assert cli_main(["figures", "--figures", "7", "--runs", "2", "--hosts", "16"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        cli_main([])
