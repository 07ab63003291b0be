"""The repository benchmark: seven workloads from ``publish`` to ``delivered``.

One run of one workload (what the driver calls)::

    python3 bench/run.py --workload sim_steady --seed 0 --seconds 8 --trace 0

prints human-readable lines and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` it drives itself, one fresh child process per
(workload, repeat), one at a time::

    python3 bench/run.py --seed 0             # report: medians and quartiles
    python3 bench/run.py --seed 0 --traced    # per-layer report, one traced run each
    python3 bench/run.py --seed 0 --aa        # the full set twice; must agree

See README.md for what every number means.
"""

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {SOURCE / 'repro'} is missing")
sys.path.insert(0, str(SOURCE))

import layers  # noqa: E402 - needs the path set up above
import probes  # noqa: E402
from compare import quartiles  # noqa: E402
from live import LIVE_SPECS, run_live  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    NOMINAL_SECONDS,
    SIM_SPECS,
    Outcome,
    Spec,
    run_sim,
)

SPECS: Dict[str, Spec] = {spec.name: spec for spec in SIM_SPECS + LIVE_SPECS}
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, Dict[str, Any]] = {m["name"]: m for m in CONTRACT["end_to_end"]}
EXPECTED_FILE = BENCH_DIR / "expected.json"
DETAIL_PREFIX = "#detail "
DEFAULT_REPEATS = 5

ON_RECEIVE = "repro.core.delivery:DeliveryState.on_receive"
ROUTING_DELAY = "repro.topology.routing:RoutingTable.delay"
#: retransmit timeout (virtual ms) of the link-layer A/B: above any round
#: trip of the testbed, so the layer acks and arms timers but never resends
AB_RETRANSMIT_TIMEOUT = 400.0
AB_MESSAGES = 750


# ---------------------------------------------------------------------------
# One run, in this process
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    """Run one workload once; per-layer metrics are filled when ``trace``."""
    spec = SPECS[name]
    simulated = spec in SIM_SPECS
    if not trace:
        run = run_sim if simulated else run_live
        outcome = run(spec, seed, seconds, None, scale)[0]
    else:
        outcome = _run_traced(spec, simulated, seed, seconds, scale)
    if simulated and scale == 1.0 and seconds == NOMINAL_SECONDS:
        _check_expected(outcome, seed)
    return outcome


class GcWatch:
    """Longest collector pause and gen-2 count of a traced run."""

    def __init__(self) -> None:
        self.pause_max = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.pause_max = max(self.pause_max, perf_counter() - self._started)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


def _run_traced(
    spec: Spec, simulated: bool, seed: int, seconds: float, scale: float
) -> Outcome:
    tracer = Tracer()
    arrivals: List[Tuple[int, Any]] = []
    buffered = 0
    queries: List[Tuple[int, int]] = []

    def saw_receive(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        nonlocal buffered
        # The replay needs every arrival from the first one on, so it
        # takes the gap-free prefix before the first reference round.
        if not tracer.uninstalls:
            arrivals.append((args[0].host_id, args[1]))
        if not result:
            buffered += 1

    tracer.after(ON_RECEIVE, saw_receive)
    tracer.after(ROUTING_DELAY, lambda args, kwargs, result: queries.append(args[1:3]))
    tracer.install()
    with GcWatch() as collector:
        if simulated:
            outcome, sim_bed, rounds = run_sim(spec, seed, seconds, tracer, scale)
            fabrics, switch_stats = sim_bed.fabrics, sim_bed.switch_stats
        else:
            outcome, live_bed, rounds = run_live(spec, seed, seconds, tracer, scale)
            fabrics, switch_stats = [live_bed.service.bus.fabric], []

    probed = dict(outcome.layers)
    probed["gc.pause_ms_max"] = collector.pause_max * 1e3
    probed["gc.collections_gen2"] = float(collector.gen2)
    probed.update(probes.bare_dispatch(scale))
    probed.update(probes.routing_queries(fabrics[0].routing, queries, scale))
    if len(fabrics) == 1:
        probed.update(probes.delivery_replay(fabrics[0], arrivals, scale))
        probed.update(probes.observer_replay(fabrics[0], scale))
    ab_messages = max(10, int(AB_MESSAGES * scale))
    if spec.name == "sim_steady":
        ratios = probes.ab_ratios(
            sim_bed, seed, ab_messages, 20.0,
            {"reliable": {"trace": False, "retransmit_timeout": AB_RETRANSMIT_TIMEOUT}},
        )
        probed["core.protocol.link_overhead_ratio"] = ratios["reliable"]
    if spec.observed:
        assert sim_bed.monitor is not None
        probed["obs.monitor_warnings"] = float(len(sim_bed.monitor.alerts))
        ratios = probes.ab_ratios(
            sim_bed, seed, ab_messages, spec.gap_ms or 0.0,
            {"traced": {"trace": True}, "observed": {"trace": True, "observed": True}},
            audited="observed",
        )
        probed["obs.trace_only_ratio"] = ratios["traced"]
        probed["obs.overhead_ratio"] = ratios["observed"]
    if spec.observed or spec.churn:
        probed.update(probes.explorer(scale))
    outcome.layers = layers.collect(
        outcome, tracer, fabrics, rounds, switch_stats, buffered, probed
    )
    return outcome


def _check_expected(outcome: Outcome, seed: int) -> None:
    """Compare the exact-repeat record with the one recorded for this seed
    (records are of runs at the nominal ``--seconds``)."""
    recorded = json.loads(EXPECTED_FILE.read_text()).get(outcome.spec.name, {})
    expected = recorded.get(str(seed))
    if expected is None:
        return
    for key, value in expected.items():
        if outcome.exact.get(key) != value:
            outcome.problems.append(
                f"exact-repeat field {key!r} is {outcome.exact.get(key)!r}, "
                f"bench/expected.json records {value!r} for seed {seed}"
            )


def result_line(outcome: Outcome, trace: bool) -> str:
    """The driver's last line: exactly four keys."""
    if trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        values = outcome.layers
    else:
        units = {name: m["unit"] for name, m in END_TO_END.items()}
        values = outcome.end_to_end
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )


def main_one(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    outcome = run_one(args.workload, args.seed, args.seconds, trace)
    spec = outcome.spec
    print(f"{spec.name}: {spec.loop}")
    print(f"  why: {spec.why}")
    for key, value in outcome.detail.items():
        print(f"  {key}: {value}")
    for key, value in outcome.exact.items():
        print(f"  exact {key}: {value}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    print(DETAIL_PREFIX + json.dumps({"exact": outcome.exact, "detail": outcome.detail}))
    print(result_line(outcome, trace))
    return 0 if outcome.correct else 1


# ---------------------------------------------------------------------------
# Driving child processes: report, --traced, --aa
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def run_child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One (workload, repeat) in a fresh process; returns its parsed output."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{name} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            result.update(json.loads(line[len(DETAIL_PREFIX):]))
    return result


def first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def run_set(names: Sequence[str], seed: int, seconds: float, repeats: int) -> Dict[str, Any]:
    """Every workload ``repeats`` times; aborts when repeats disagree exactly."""
    report: Dict[str, Any] = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for repeat in range(repeats):
            runs.append(run_child(name, seed, seconds, trace=0))
            print(f"  {name} repeat {repeat + 1}/{repeats} done", file=sys.stderr)
            difference = first_difference(runs[0]["exact"], runs[-1]["exact"])
            if difference:
                raise ChildFailed(f"{name}: repeats disagree on {difference}")
        report["workloads"][name] = {
            "why": SPECS[name].why,
            "loop": SPECS[name].loop,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "exact": runs[0]["exact"],
            "region_s": [r["detail"]["region_s"] for r in runs],
            "switch_p50_ms": [
                r["detail"]["switch_p50_ms"] for r in runs if "switch_p50_ms" in r["detail"]
            ],
            "metrics": {
                metric: [r["metrics"][metric]["value"] for r in runs]
                for metric in END_TO_END
            },
        }
    return report


def print_report(report: Dict[str, Any]) -> None:
    print(f"seed {report['seed']}, {report['seconds']} s per timed region")
    header = f"{'workload':<13}{'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"
    for name, entry in report["workloads"].items():
        print()
        print(f"{name} — {entry['loop']}")
        print(f"  why: {entry['why']}")
        print(
            f"  operations attempted {entry['attempted']}, failed {entry['failed']}; "
            f"timed region {statistics.median(entry['region_s']):.2f} s"
        )
        print(header)
        rows = dict(entry["metrics"])
        units = {metric: END_TO_END[metric]["unit"] for metric in rows}
        if entry["switch_p50_ms"]:
            rows["switch_p50_ms"], units["switch_p50_ms"] = entry["switch_p50_ms"], "ms"
        for metric, values in rows.items():
            q1, median, q3 = quartiles(values)
            print(
                f"{name:<13}{metric:<16}{units[metric]:<7}"
                f"{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>4}"
            )
        for key, value in entry["exact"].items():
            print(f"  exact {key}: {value}")


def main_report(args: argparse.Namespace, names: Sequence[str]) -> int:
    report = run_set(names, args.seed, args.seconds, args.repeats)
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 1 if failed else 0


def main_traced(args: argparse.Namespace, names: Sequence[str]) -> int:
    """One untraced and one traced run per workload; exact records must match."""
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    columns: Dict[str, Dict[str, float]] = {}
    for name in names:
        plain = run_child(name, args.seed, args.seconds, trace=0)
        traced = run_child(name, args.seed, args.seconds, trace=1)
        difference = first_difference(plain["exact"], traced["exact"])
        if difference:
            raise ChildFailed(f"{name}: traced and untraced runs disagree on {difference}")
        columns[name] = {m: traced["metrics"][m]["value"] for m in units}
        print(f"  {name} traced", file=sys.stderr)
    width = max(len(metric) for metric in units) + 2
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in units.items():
        cells = "".join(f"{columns[n][metric]:>14.4f}" for n in names)
        print(f"{metric:<{width}}{unit:<7}{cells}")
    return 0


def main_aa(args: argparse.Namespace, names: Sequence[str]) -> int:
    """The benchmark's self-test: two sets of runs of the same code agree."""
    first = run_set(names, args.seed, args.seconds, args.repeats)
    second = run_set(names, args.seed, args.seconds, args.repeats)
    disagreements = []
    for name in names:
        a, b = first["workloads"][name], second["workloads"][name]
        difference = first_difference(a["exact"], b["exact"])
        if difference:
            disagreements.append(f"{name}: exact-repeat {difference}")
        for metric, spec in END_TO_END.items():
            one = statistics.median(a["metrics"][metric])
            two = statistics.median(b["metrics"][metric])
            apart = abs(two - one) / one
            verdict = "ok" if apart <= spec["bound"] else "DIFFER"
            print(
                f"{name:<13}{metric:<16}{one:>12.4f}{two:>12.4f}"
                f"{apart:>8.2%} of {one:.4f} (bound {spec['bound']:.0%}) {verdict}"
            )
            if apart > spec["bound"]:
                disagreements.append(f"{name}: {metric} medians {one} vs {two}")
    for line in disagreements:
        print(f"A/A FAILED {line}")
    return 1 if disagreements else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--out", help="write the report's raw values as JSON")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        args.workload = args.workload[0]
        return main_one(args)
    names = args.workload or list(SPECS)
    try:
        if args.traced:
            return main_traced(args, names)
        if args.aa:
            return main_aa(args, names)
        return main_report(args, names)
    except ChildFailed as failure:
        print(f"bench/run.py: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
