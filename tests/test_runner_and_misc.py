"""Tests for the experiment runner's export paths and remaining corners."""

import pytest

from repro.baselines.common import BaselineFabric
from repro.experiments.runner import run_selected
from repro.core.messages import vector_timestamp_bytes
from repro.metrics.overhead import stamp_overhead_bytes
from repro.pubsub.membership import GroupMembership

# ---------------------------------------------------------------------------
# Runner with CSV + ASCII for every figure
# ---------------------------------------------------------------------------


def test_runner_exports_all_figures(tmp_path):
    report = run_selected(
        ["3", "4", "5", "6", "7", "8"],
        runs=2,
        paper_scale=False,
        n_hosts=16,
        csv_dir=str(tmp_path),
        ascii_plots=True,
    )
    for figure in (3, 4, 5, 6, 7, 8):
        assert f"Figure {figure}" in report
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "fig3_cdf.csv",
        "fig4_xy.csv",
        "fig5_xy.csv",
        "fig6_xy.csv",
        "fig7_cdf.csv",
        "fig8_xy.csv",
    }
    # ASCII plots include axes and legends.
    assert report.count("+---") >= 6


def test_runner_csv_contents(tmp_path):
    run_selected(["5"], runs=2, paper_scale=False, n_hosts=16, csv_dir=str(tmp_path))
    lines = (tmp_path / "fig5_xy.csv").read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert len(lines) > 3


# ---------------------------------------------------------------------------
# Baseline scaffolding corners
# ---------------------------------------------------------------------------


def test_baseline_fabric_requires_publish_override(env32):
    membership = GroupMembership()
    membership.create_group([0, 1])
    fabric = BaselineFabric(membership, env32.hosts, env32.routing)
    with pytest.raises(NotImplementedError):
        fabric.publish(0, 0)


def test_baseline_host_delay_self(env32):
    membership = GroupMembership()
    membership.create_group([0, 1])
    fabric = BaselineFabric(membership, env32.hosts, env32.routing)
    host = env32.hosts[0]
    assert fabric.host_delay(0, 0) == pytest.approx(2 * host.access_delay)


def test_baseline_channel_between_cached(env32):
    membership = GroupMembership()
    membership.create_group([0, 1])
    fabric = BaselineFabric(membership, env32.hosts, env32.routing)
    a = fabric.host_processes[0]
    b = fabric.host_processes[1]
    c1 = fabric.channel_between(a, b, 3.0)
    c2 = fabric.channel_between(a, b, 99.0)  # delay ignored on reuse
    assert c1 is c2


def test_baseline_msg_ids_unique(env32):
    membership = GroupMembership()
    membership.create_group([0, 1])
    fabric = BaselineFabric(membership, env32.hosts, env32.routing)
    ids = [fabric.next_msg_id() for _ in range(5)]
    assert ids == list(range(5))


# ---------------------------------------------------------------------------
# Misc metric corners
# ---------------------------------------------------------------------------


def test_overhead_ratio_grows_with_fewer_nodes():
    from repro.core.sequencing_graph import SequencingGraph

    graph = SequencingGraph.build(
        {0: frozenset({0, 1, 2}), 1: frozenset({1, 2, 3})}
    )
    worst = max(stamp_overhead_bytes(graph).values())
    assert worst / vector_timestamp_bytes(512) < worst / vector_timestamp_bytes(8)


def test_fabric_publish_from_nonmember_allowed_at_fabric_level(env32):
    """The fabric itself is policy-free; membership enforcement is the
    facade's job (paper: non-member sends lose causality, not safety)."""
    membership = GroupMembership()
    membership.create_group([1, 2, 3], group_id=0)
    fabric = env32.build_fabric(membership)
    fabric.publish(9, 0, "outsider")  # host 9 not in the group
    fabric.run()
    assert [r.payload for r in fabric.delivered(2)] == ["outsider"]
    assert fabric.delivered(9) == []  # non-members receive nothing


def test_sim_rng_isolation(env32):
    """Two identical fabrics drained in sequence produce identical logs."""
    def run():
        membership = GroupMembership()
        membership.create_group([0, 1, 2], group_id=0)
        fabric = env32.build_fabric(membership, seed=5)
        fabric.publish(0, 0)
        fabric.publish(1, 0)
        fabric.run()
        return [(r.msg_id, round(r.time, 9)) for r in fabric.delivered(2)]

    assert run() == run()
