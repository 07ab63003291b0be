"""Self-check of the benchmark (not part of the tier-1 ``tests/`` suite).

    PYTHONPATH=src python -m pytest bench/tests -q

Runs every workload once at 1/50 size, untraced and traced, purely to
exercise the correctness checks and the ``BENCHMARK.json`` schema.  The
numbers these runs produce are never reported.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = 0.02
SECONDS = 0.2
SEED = 3


def test_contract_schema():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["paths"] == ["bench"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((BENCH.parent / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 8) <= 3420, "time cap of the driver"


def test_contract_matches_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (spec.name, spec.why) for spec in run.SPECS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(layers.PER_LAYER)


@pytest.mark.parametrize("name", list(run.SPECS))
def test_workload_runs_and_checks(name):
    outcome = run.run_one(name, SEED, SECONDS, trace=False, scale=SCALE)
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1 and outcome.failed == 0
    result = json.loads(run.result_line(outcome, trace=False))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if name.startswith("sim_"):
        again = run.run_one(name, SEED, SECONDS, trace=False, scale=SCALE)
        assert again.exact == outcome.exact, "exact-repeat record must repeat"


@pytest.mark.parametrize("name", list(run.SPECS))
def test_traced_run_reports_every_layer_metric(name):
    outcome = run.run_one(name, SEED, SECONDS, trace=True, scale=SCALE)
    assert outcome.correct, outcome.problems
    result = json.loads(run.result_line(outcome, trace=True))
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if name.startswith("sim_"):
        plain = run.run_one(name, SEED, SECONDS, trace=False, scale=SCALE)
        assert plain.exact == outcome.exact, "tracing must not change the run"


def test_audit_catches_a_missed_and_a_reordered_delivery():
    spec = run.SPECS["sim_steady"]
    outcome, bed, _ = workloads.run_sim(spec, SEED, SECONDS, scale=SCALE)
    assert outcome.correct
    fabric = bed.fabric
    group = fabric.membership.groups()[0]
    member = sorted(fabric.membership.members(group))[0]
    log = fabric.host_processes[member].delivered
    missed = workloads.Outcome(spec)
    dropped = log.pop()
    workloads.audit_deliveries([fabric], missed)
    assert missed.failed >= 1 and not missed.correct
    log.append(dropped)
    in_group = [i for i, r in enumerate(log) if r.stamp.group == group]
    log[in_group[0]], log[in_group[1]] = log[in_group[1]], log[in_group[0]]
    reordered = workloads.Outcome(spec)
    workloads.audit_deliveries([fabric], reordered)
    assert reordered.failed >= 2


def test_a_missing_entry_point_fails_by_name(monkeypatch):
    import spans

    monkeypatch.setattr(
        spans, "ENTRY_POINTS", spans.ENTRY_POINTS + ("repro.core.delivery:DeliveryState.gone",)
    )
    with pytest.raises(spans.MissingEntryPoint, match="DeliveryState.gone"):
        spans.Tracer().install()


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, True, 0.1)[0] == "same"
    assert compare.verdict(steady, [v * 0.8 for v in steady], True, 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], True, 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 1.2 for v in steady], False, 0.1)[0] == "worse"
    noisy = [100.0, 130.0, 70.0, 115.0, 85.0]
    assert compare.verdict(noisy, [v * 0.95 for v in noisy], True, 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [v * 3 for v in noisy], True, 0.1)[0] == "better"
