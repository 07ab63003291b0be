"""A3 — dynamic membership churn (the paper's Section 5 future work).

"When changes in the group membership are infrequent or along existing
patterns, we expect very little churn in the sequencing graph."

Two layers of the same question:

* the **graph** microbenchmark applies a stream of group add/remove
  operations to an incrementally-maintained sequencing graph and
  measures reconfiguration cost in atoms created/retired (lazy removal
  vs eager splicing);
* the **online campaign** benchmark drives whole fabrics through
  epoch-fenced online reconfiguration under live traffic
  (:mod:`repro.faults.campaign`): what a switch costs in drained events and
  how delivery throughput holds across epochs.
"""

import random

from conftest import bench_runs

from repro.core.sequencing_graph import SequencingGraph
from repro.experiments.common import format_table
from repro.faults.campaign import CampaignConfig, execute_campaign
from repro.workloads.zipf import zipf_membership


def run_churn(n_hosts=128, n_groups=24, operations=200, lazy=True, seed=0):
    rng = random.Random(seed)
    snapshot = zipf_membership(n_hosts, n_groups, rng=rng)
    graph = SequencingGraph.build(snapshot)
    live = dict(snapshot)
    next_id = n_groups

    atoms_created = 0
    atoms_retired = 0
    max_atoms = len(graph.atoms)
    for _ in range(operations):
        if live and rng.random() < 0.5:
            victim = rng.choice(sorted(live))
            atoms_retired += len(graph.remove_group(victim, lazy=lazy))
            del live[victim]
        else:
            size = max(2, round(n_hosts * 0.75 / rng.randint(1, n_groups)))
            members = set(rng.sample(range(n_hosts), size))
            atoms_created += len(graph.add_group(next_id, members))
            live[next_id] = members
            next_id += 1
        graph.validate()
        max_atoms = max(max_atoms, len(graph.atoms))
    retired_backlog = len(graph.retired)
    graph.compact()
    graph.validate()
    return {
        "operations": operations,
        "atoms_created": atoms_created,
        "atoms_retired": atoms_retired,
        "retired_backlog_at_end": retired_backlog,
        "max_atoms_alive": max_atoms,
        "final_groups": len(graph.groups()),
    }


def test_churn_lazy_vs_eager(benchmark, env128, save_result):
    operations = 10 * bench_runs(20)

    def both():
        lazy = run_churn(operations=operations, lazy=True, seed=1)
        eager = run_churn(operations=operations, lazy=False, seed=1)
        return lazy, eager

    lazy, eager = benchmark.pedantic(both, rounds=1, iterations=1)
    table = format_table(
        ["metric", "lazy", "eager"],
        [(k, lazy[k], eager[k]) for k in sorted(lazy)],
        title=f"A3: sequencing-graph churn over {operations} membership ops",
    )
    save_result("a3_churn", table)
    benchmark.extra_info.update(
        {
            "ops": operations,
            "lazy_backlog": lazy["retired_backlog_at_end"],
            "max_atoms_lazy": lazy["max_atoms_alive"],
            "max_atoms_eager": eager["max_atoms_alive"],
        }
    )

    # Same logical work either way.
    assert lazy["atoms_created"] == eager["atoms_created"]
    assert lazy["final_groups"] == eager["final_groups"]
    # Lazy removal defers work: retired placeholders accumulate.
    assert lazy["retired_backlog_at_end"] > 0
    assert eager["retired_backlog_at_end"] == 0
    # Lazy keeps more atoms alive at peak (the efficiency-only cost the
    # paper accepts for simpler reconfiguration).
    assert lazy["max_atoms_alive"] >= eager["max_atoms_alive"]


def test_online_reconfiguration_campaign(benchmark, save_result):
    """End-to-end churn through the online epoch-fence path.

    A seeded campaign: sustained join/leave churn applied through
    epoch-fenced switches on live fabrics, publishes in flight at every
    cutover.  Measures the fence-drain cost per switch and asserts the
    cross-epoch invariants stay clean (the benchmark doubles as a
    large-scale RT32x exercise; fault injection is off so the drain cost
    is the reconfiguration's own, not failover's).
    """
    churn_events = 2 * bench_runs(20)
    config = CampaignConfig(
        hosts=48,
        groups=12,
        events=120,
        churn_events=churn_events,
        switches=6,
        seed=2,
        horizon=500.0,
        loss_rate=0.0,
        node_crashes=0,
        host_crashes=0,
        link_outages=0,
        loss_windows=0,
        delay_spikes=0,
        permanent_crash=False,
        mid_switch_crash=False,
    )

    run = benchmark.pedantic(
        lambda: execute_campaign(config), rounds=1, iterations=1
    )
    report = run.report
    switches = [e["switch"] for e in report["epochs"] if e["switch"]]
    rows = [
        (
            e["epoch"],
            e["groups"],
            e["published"],
            e["delivered"],
            e["switch"]["drain_events"] if e["switch"] else "-",
            e["switch"]["drain_attempts"] if e["switch"] else "-",
        )
        for e in report["epochs"]
    ]
    table = format_table(
        ["epoch", "groups", "published", "delivered", "drain_events",
         "drain_attempts"],
        rows,
        title=(
            f"A3b: online epoch-fenced churn — {churn_events} membership "
            f"events over {config.switches} switches, traffic in flight"
        ),
    )
    save_result("a3b_online_churn", table)
    benchmark.extra_info.update(
        {
            "churn_events": churn_events,
            "switches": len(switches),
            "drain_events_total": sum(s["drain_events"] for s in switches),
            "published": report["published"],
            "delivered": report["delivered"],
        }
    )

    # Clean under the full RT30x + RT32x audit, all traffic accounted.
    assert report["ok"], report["findings"]
    assert report["published"] == config.events
    assert report["quiescent"]
    # Every switch went through the online fence path, first try (no
    # faults are racing the drain here).
    assert len(switches) == config.switches
    assert all(s["online"] and s["drain_attempts"] == 1 for s in switches)
