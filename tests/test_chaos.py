"""End-to-end chaos campaigns and the ``repro chaos`` CLI.

The acceptance criterion for the robustness layer: a seeded campaign
that permanently crashes a sequencing node mid-traffic completes with
zero ordering-consistency violations, exactly-once delivery to every
subscriber, and a JSON report carrying failover count, retransmissions
by cause, and detection latency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import CampaignConfig, CrashNode, FaultPlan, run_campaign

#: Small-but-real campaign shape used across these tests (fast topology,
#: enough traffic to cross the fault window).
FAST = dict(hosts=16, groups=6, events=40, horizon=250.0)


def test_campaign_acceptance_criterion():
    """Seeded run, permanent node crash mid-traffic: all invariants hold."""
    report = run_campaign(CampaignConfig(seed=0, **FAST))
    assert report["ok"] is True
    assert report["findings"] == []
    assert report["quiescent"] is True
    # A sequencing node actually crashed permanently...
    permanent = [
        f
        for f in report["faults"]
        if f["kind"] == "crash_node" and f["duration"] is None
    ]
    assert len(permanent) == 1
    # ...was failed over, with a measured detection latency.
    crashed = permanent[0]["node_id"]
    matching = [f for f in report["failovers"] if f["node_id"] == crashed]
    assert len(matching) >= 1
    assert matching[0]["detection_latency_ms"] is not None
    assert matching[0]["detection_latency_ms"] > 0
    # The report attributes retransmissions by cause.
    assert report["retransmissions"]["total"] == sum(
        report["retransmissions"]["by_cause"].values()
    )
    assert report["published"] == FAST["events"]


def test_detection_latency_is_measured_from_the_suspicion_that_failed_over():
    """Seed 7 suspects every sequencing node just before node 0's
    permanent crash; the failover that answers the crash comes later."""
    report = run_campaign(CampaignConfig(hosts=24, groups=8, events=80, seed=7))
    crash = next(f for f in report["faults"] if f["kind"] == "crash_node")
    early = [f for f in report["failovers"] if f["time"] < crash["at"]]
    late = [f for f in report["failovers"] if f["time"] >= crash["at"]]
    assert early and late
    assert all(f["detection_latency_ms"] is None for f in early)
    answer = [f for f in late if f["node_id"] == crash["node_id"]]
    assert [f["detection_latency_ms"] for f in answer] == [
        f["time"] - crash["at"] for f in answer
    ]
    assert all(f["detection_latency_ms"] > 0 for f in answer)


def test_campaign_deterministic():
    a = run_campaign(CampaignConfig(seed=5, **FAST))
    b = run_campaign(CampaignConfig(seed=5, **FAST))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_campaign_seeds_differ():
    a = run_campaign(CampaignConfig(seed=1, **FAST))
    b = run_campaign(CampaignConfig(seed=2, **FAST))
    assert a["faults"] != b["faults"]


def test_campaign_with_explicit_plan():
    config = CampaignConfig(seed=3, **FAST)
    plan = FaultPlan().add(CrashNode(at=60.0, node_id=0, duration=None))
    report = run_campaign(config, plan=plan)
    assert report["ok"] is True
    assert [f["kind"] for f in report["faults"]] == ["crash_node"]
    assert any(f["node_id"] == 0 for f in report["failovers"])


def test_campaign_rejects_a_plan_naming_a_missing_node():
    # Only an epoch switch can lose a target; before one, it is a bad plan.
    plan = FaultPlan().add(CrashNode(at=60.0, node_id=999, duration=None))
    with pytest.raises(KeyError):
        run_campaign(CampaignConfig(seed=3, **FAST), plan=plan)


def test_campaign_detects_real_violations():
    """With detection slowed far past the retransmit budget, traffic to
    the crashed node is abandoned before any failover can save it — the
    invariant checker reports the stranded messages, ok flips False."""
    config = CampaignConfig(
        seed=0,
        heartbeat_interval=60.0,
        suspect_after=60,  # suspicion comes thousands of ms too late...
        max_retransmits=2,  # ...but the budget runs out within ~35 ms
        **FAST,
    )
    report = run_campaign(config)
    assert report["ok"] is False
    codes = {f["code"] for f in report["findings"]}
    assert "RT302" in codes  # stranded messages never delivered
    assert report["link_failures"] > 0


def test_config_validation():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(hosts=1))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(horizon=0.0))


# -- CLI ---------------------------------------------------------------------


def test_cli_chaos_json_report(tmp_path):
    out = tmp_path / "chaos.json"
    code = main(
        [
            "chaos",
            "--hosts", "16",
            "--groups", "6",
            "--events", "40",
            "--horizon", "250",
            "--runs", "2",
            "--seed", "0",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["runs"] == 2
    assert payload["failed"] == 0
    for report in payload["reports"]:
        assert report["findings"] == []
        assert len(report["failovers"]) >= 1
        assert "by_cause" in report["retransmissions"]
        assert set(report["drops"]) == {"loss", "outage"}


def test_cli_chaos_text_format(capsys):
    code = main(
        [
            "chaos",
            "--hosts", "16",
            "--groups", "6",
            "--events", "30",
            "--horizon", "200",
            "--seed", "1",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "failovers" in text
    assert "retransmissions" in text
    assert "0 failed" in text


def test_cli_chaos_on_the_asyncio_backend():
    """The asyncio churn smoke's shape without churn: the same fault
    script under real timers, clean, within the CI step's timeout."""
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "chaos",
            "--hosts", "12", "--groups", "4", "--events", "16",
            "--horizon", "120", "--loss", "0", "--seed", "5",
            "--backend", "asyncio", "--format", "json",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (report,) = json.loads(done.stdout)["reports"]
    assert report["ok"] and report["quiescent"]
    assert report["config"]["backend"] == "asyncio"
    assert report["published"] == 16


def test_cli_chaos_nonzero_exit_on_violation(capsys):
    code = main(
        [
            "chaos",
            "--hosts", "16",
            "--groups", "6",
            "--events", "30",
            "--horizon", "200",
            "--seed", "0",
            "--interval", "60",
            "--suspect-after", "60",
            "--max-retransmits", "2",
        ]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "RT30" in text  # the violating codes are printed
