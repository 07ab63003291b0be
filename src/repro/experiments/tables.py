"""The table registry: every figure and ablation of the evaluation, once.

Each :class:`Table` names one results table — Figures 3–8 (``"3"`` …
``"8"``) and the A1–A9 ablations (``"a1"`` … ``"a9"``, and ``"a3b"``) —
with the file it is saved to, how it runs from one repetition count,
how it renders, and the paper's shape claims it must meet.  ``repro
figures`` and ``benchmarks/test_bench_tables.py`` both drive it, so a
table comes out the same from either, and ``benchmarks/results/<file>.txt``
is reproduced by the config its own header names (``tests/test_tables.py``
checks that byte for byte).

Each table derives its repetitions from the one ``runs`` value (default
30) by its own rule; sizes such as A3's 200 operations are constants of
the workload, not repetitions.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.messages import ATOM_ENTRY_BYTES, HEADER_BYTES
from repro.experiments import ablations as ab
from repro.experiments import fig3_latency_stretch as fig3
from repro.experiments import fig4_rdp as fig4
from repro.experiments import fig5_sequencing_nodes as fig5
from repro.experiments import fig6_stress as fig6
from repro.experiments import fig7_atoms_on_path as fig7
from repro.experiments import fig8_occupancy as fig8
from repro.experiments import hosts_sweep
from repro.experiments.common import ExperimentEnv
from repro.faults.campaign import execute_campaign
from repro.metrics.stats import percentile

#: the repetition count every table derives its own from (paper: 100)
DEFAULT_RUNS = 30


@dataclass(frozen=True)
class Table:
    #: registry name: the figure number or the ablation's label
    name: str
    #: results file stem under ``benchmarks/results/``
    file: str
    #: ``run(env, runs)`` -> whatever ``render`` and ``claims`` read
    run: Callable[[ExperimentEnv, int], Any]
    render: Callable[[Any], str]
    #: ``claims(results, env)`` asserts the paper's qualitative shape
    claims: Callable[[Any, ExperimentEnv], None]
    #: figures only: ``plot(results)`` -> ``(kind, title, series)`` for the
    #: ASCII plot and the CSV export, ``kind`` being ``"cdf"`` or ``"xy"``
    plot: Optional[Callable[[Any], Tuple[str, str, Dict[Any, Any]]]] = None


def saved_text(table: Table, results: Any, runs: int, paper_scale: bool) -> str:
    """A results file: the config it ran under, then the rendered table."""
    return (
        f"# config: REPRO_BENCH_RUNS={runs} "
        f"REPRO_PAPER_SCALE={'1' if paper_scale else '0'}\n"
        f"{table.render(results)}\n"
    )


# ---------------------------------------------------------------------------
# The claims: the paper's shapes, asserted on each table's results.
# ---------------------------------------------------------------------------


def _fig3_claims(results, env):
    # Stretch grows with the number of groups but sub-linearly (§4.2).
    p50 = {g: percentile(v, 50) for g, v in results.items()}
    p90 = {g: percentile(v, 90) for g, v in results.items()}
    # Stretch is a real penalty (>1) but bounded.
    assert all(p50[g] > 1.0 for g in p50)
    # Sub-linear growth: 8x groups produces far less than 8x stretch.
    assert p50[64] < 8 * p50[8]
    assert p90[64] < 8 * p90[8]
    # More groups never make ordering dramatically cheaper.
    assert p50[64] >= 0.5 * p50[8]


def _fig4_claims(points, env):
    # "The highest values for RDP correspond to the pairs in which the
    # sender and the destination are very close to each other" (§4.2).
    rows = fig4.bin_points(points, n_bins=8)
    assert len(rows) >= 3
    closest, farthest = rows[0], rows[-1]
    # Close pairs pay the largest relative penalty.
    assert closest[4] > farthest[4]
    assert closest[3] > farthest[3]
    # Far pairs pay only a small constant factor.
    assert farthest[3] < 5.0


def _fig5_claims(results, env):
    # Node count grows with the groups, more gradually past ~30 (§4.3).
    mean = {g: sum(v) / len(v) for g, v in results.items()}
    # Monotone-ish growth with group count.
    assert mean[64] > mean[8] > mean[1]
    # Growth turns gradual: per-group increment after 32 groups is smaller
    # than before 32 groups.
    early_rate = (mean[32] - mean[8]) / (32 - 8)
    late_rate = (mean[64] - mean[32]) / (64 - 32)
    assert late_rate < early_rate
    # Node count stays far below the overlap count (co-location works).
    assert mean[64] < 64


def _fig6_claims(results, env):
    # Average stress starts high, drops as nodes are added, and settles
    # rather than collapsing to zero (§4.3).
    mean = {g: sum(v) / len(v) for g, v in results.items() if v}
    # Few groups: nodes forward most of them.
    assert mean[4] > 0.5
    # Stress decreases as the sequencing network grows...
    assert mean[32] < mean[4]
    # ...but stabilizes: it never collapses to (near) zero.
    assert mean[64] > 0.05


def _fig7_claims(results, env):
    # "In the worst case, the number of sequencing atoms in the path of a
    # message is less than half of the total number of nodes" (§4.4).
    worst = {g: max(v) for g, v in results.items()}
    # The paper's headline bound.
    assert all(w < 0.5 for w in worst.values())
    # More groups -> more overlaps per group (CDF shifts right).
    assert worst[64] > worst[8]
    # Path length in atoms is bounded by the number of groups.
    n_hosts = env.n_hosts
    for n_groups, values in results.items():
        assert max(values) * n_hosts <= n_groups


def _fig8_claims(results, env):
    # Overlaps rise until every pair overlaps; nodes peak around 0.2
    # occupancy, decline, and collapse to one above ~0.9 (§4.5).
    overlaps = {occ: results[occ][0] for occ in results}
    nodes = {occ: results[occ][1] for occ in results}
    peak_occ = max(nodes, key=lambda occ: nodes[occ])
    # Overlaps saturate at the full pair count.
    assert overlaps[1.0] == 32 * 31 / 2
    assert overlaps[0.05] < overlaps[0.5]
    # Sequencing nodes peak at low-moderate occupancy...
    assert 0.05 <= peak_occ <= 0.35
    # ...decline beyond the peak...
    assert nodes[0.6] < nodes[peak_occ]
    # ...and collapse to one at (near-)full occupancy.
    assert nodes[1.0] == 1
    assert nodes[0.95] <= 4


def _a1_claims(rows, env):
    for n_groups, _mean_stamp, worst_stamp, group_vector, dense_vector in rows:
        # Stamp entries bounded by the group count.
        assert worst_stamp <= HEADER_BYTES + ATOM_ENTRY_BYTES * (n_groups - 1)
        # The headline: cheaper than system-wide vector timestamps while
        # nodes outnumber groups.
        assert worst_stamp < dense_vector
    # For the Zipf workload the biggest group is ~0.75*128 members, so even
    # per-group vectors are heavier than the worst stamp at small group
    # counts.
    n_groups, _m, worst_stamp, group_vector, _d = rows[0]
    assert worst_stamp < group_vector


def _a2_claims(stats, env):
    # The coordinator is the bottleneck: it sequences every message.
    assert stats["coordinator_load"] == ab.COMPARISON_MESSAGES
    # No sequencing atom (or even co-located node) comes close.
    assert stats["max_atom_load"] < ab.COMPARISON_MESSAGES
    assert stats["max_seqnode_load"] <= ab.COMPARISON_MESSAGES
    # Propagation trees push heavy forwarding onto the busiest host.
    assert stats["max_tree_forwarding"] > 0
    # Mean delivery latencies are in the same order of magnitude: the
    # decentralized design does not explode latency relative to the
    # centralized foil.
    assert stats["latency_ours"] < 10 * stats["latency_central"]


def _a3_claims(lazy_eager, env):
    lazy, eager = lazy_eager
    # Same logical work either way.
    assert lazy["atoms_created"] == eager["atoms_created"]
    assert lazy["final_groups"] == eager["final_groups"]
    # Lazy removal defers work: retired placeholders accumulate.
    assert lazy["retired_backlog_at_end"] > 0
    assert eager["retired_backlog_at_end"] == 0
    # Lazy keeps more atoms alive at peak (the efficiency-only cost the
    # paper accepts for simpler reconfiguration).
    assert lazy["max_atoms_alive"] >= eager["max_atoms_alive"]


def _a3b_claims(report, env):
    switches = [e["switch"] for e in report["epochs"] if e["switch"]]
    # Clean under the full RT30x + RT32x audit, all traffic accounted.
    assert report["ok"], report["findings"]
    assert report["published"] == ab.ONLINE_CHURN.events
    assert report["quiescent"]
    # Every switch went through the online fence path, first try (no
    # faults are racing the drain here).
    assert len(switches) == ab.ONLINE_CHURN.switches
    assert all(s["online"] and s["drain_attempts"] == 1 for s in switches)


def _a4_claims(results_fabrics, env):
    results, fabrics = results_fabrics
    p50 = {mode: percentile(values, 50) for mode, values in results.items()}
    # The heuristic placement beats random scattering.
    assert p50["heuristic"] < p50["random"]

    # Correctness is placement-independent: the random-placement run still
    # delivers consistently.
    fabric = fabrics["random"]
    hosts = random.Random(0).sample(range(env.n_hosts), 16)
    for a, b in itertools.combinations(hosts, 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]


def _a5_claims(rows, env):
    by_rate = {row[0]: row for row in rows}
    # Below coordinator capacity both designs deliver with low latency.
    assert by_rate[400][2] < 200
    assert by_rate[400][3] < 200
    # Past saturation the coordinator's queue and latency blow up ...
    assert by_rate[3200][3] > 5 * by_rate[400][3]
    assert by_rate[3200][5] > 100
    # ... while the decentralized design stays bounded (the crossover):
    assert by_rate[3200][2] < by_rate[3200][3]


def _a6_claims(results, env):
    healthy, crashed = results[False], results[True]
    # No loss: every message delivered in both runs.
    assert crashed["delivered"] == healthy["delivered"]
    # The crash actually interfered...
    assert crashed["dropped_at_node"] > 0
    # ...and raised latency for the affected groups.
    assert crashed["affected_mean_ms"] > healthy["affected_mean_ms"]


def _a7_claims(results, env):
    # Per-message stamp overhead (relative to population) falls as hosts
    # grow past the fixed group count.
    assert results[128]["worst_atoms_ratio"] < results[32]["worst_atoms_ratio"]
    # The stamp ratio stays below the vector-timestamp break-even (0.5 of
    # the population would already be generous; the bound is groups/hosts).
    for n_hosts, row in results.items():
        assert row["worst_atoms_ratio"] <= 16 / n_hosts  # <= groups / hosts
    # Stretch stays in the same band across populations (no blow-up).
    stretches = [row["p50_stretch"] for row in results.values()]
    assert max(stretches) < 4 * min(stretches)


def _a8_claims(rows_gap, env):
    rows, rdp_gap = rows_gap
    by_groups = {row[0]: row for row in rows}
    # Sub-linear growth holds off the transit-stub hierarchy too.
    assert by_groups[64][1] < 8 * by_groups[8][1]
    # Close pairs still pay the largest relative penalty.
    assert rdp_gap[0] > rdp_gap[1]


def _a9_claims(results, env):
    # Affinity ordering reduces pass-through overhead vs sorted order.
    assert (
        results["greedy"]["pass_through_atoms"]
        <= results["none"]["pass_through_atoms"]
    )
    # Latency is dominated by machine hops, not pass-through count:
    # affinity ordering *alone* scatters co-located atoms along the chain
    # and hurts stretch badly; the block reordering pass recovers it.
    assert (
        results["greedy+blocks"]["p50_stretch"]
        < 0.5 * results["greedy"]["p50_stretch"]
    )
    # With the full pipeline the tail beats the naive sorted order too.
    assert (
        results["greedy+blocks"]["p90_stretch"] < results["none"]["p90_stretch"]
    )


# ---------------------------------------------------------------------------
# The registry, in the order ``repro figures`` prints it.
# ---------------------------------------------------------------------------

TABLES: Dict[str, Table] = {
    table.name: table
    for table in (
        Table("3", "fig3_latency_stretch", lambda env, runs: fig3.run_fig3(env),
              fig3.render, _fig3_claims, fig3.plot),
        Table("4", "fig4_rdp", lambda env, runs: fig4.run_fig4(env),
              fig4.render, _fig4_claims, fig4.plot),
        Table("5", "fig5_sequencing_nodes",
              lambda env, runs: fig5.run_fig5(env, runs=runs),
              fig5.render, _fig5_claims, fig5.plot),
        Table("6", "fig6_stress", lambda env, runs: fig6.run_fig6(env, runs=runs),
              fig6.render, _fig6_claims, fig6.plot),
        Table("7", "fig7_atoms_on_path",
              lambda env, runs: fig7.run_fig7(env, runs=max(5, runs // 3)),
              fig7.render, _fig7_claims, fig7.plot),
        Table("8", "fig8_occupancy",
              lambda env, runs: fig8.run_fig8(env, runs=max(3, runs // 5)),
              fig8.render, _fig8_claims, fig8.plot),
        Table("a1", "a1_overhead",
              lambda env, runs: ab.run_overhead(env, runs=max(5, runs // 3)),
              ab.render_overhead, _a1_claims),
        Table("a2", "a2_baselines", lambda env, runs: ab.run_comparison(env),
              ab.render_comparison, _a2_claims),
        # 200 graph operations (run_churn's default) is the workload's size
        Table("a3", "a3_churn",
              lambda env, runs: tuple(
                  ab.run_churn(lazy=lazy, seed=1) for lazy in (True, False)
              ),
              ab.render_churn, _a3_claims),
        Table("a3b", "a3b_online_churn",
              lambda env, runs: execute_campaign(ab.ONLINE_CHURN).report,
              ab.render_online_churn, _a3b_claims),
        Table("a4", "a4_placement", lambda env, runs: ab.run_ablation(env),
              ab.render_ablation, _a4_claims),
        Table("a5", "a5_throughput", lambda env, runs: ab.run_throughput(env),
              ab.render_throughput, _a5_claims),
        Table("a6", "a6_failures", lambda env, runs: ab.run_failure(env),
              ab.render_failure, _a6_claims),
        # one environment per population, at ``env``'s scale
        Table("a7", "a7_hosts_sweep",
              lambda env, runs: hosts_sweep.run_hosts_sweep(
                  runs=max(5, runs // 5), paper_scale=env.paper_scale
              ),
              hosts_sweep.render, _a7_claims),
        Table("a8", "a8_waxman", lambda env, runs: ab.run_waxman(),
              ab.render_waxman, _a8_claims),
        Table("a9", "a9_ordering", lambda env, runs: ab.run_ordering_ablation(env),
              ab.render_ordering_ablation, _a9_claims),
    )
}
