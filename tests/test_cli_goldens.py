"""Byte goldens of the CLI's campaign, forensics and explorer reports.

Every value here was recorded on the commit before faults-only and
faults-plus-churn campaigns shared one driver, and passes against that
commit.  A refactor that means to move no delivery, finding or alert
must leave these bytes alone.

The three seed 7 chaos goldens were re-recorded once, when a failover's
detection latency came to be measured from the suspicion that caused it
(before, every failover of a node reported the node's first suspicion,
even one that came before the crash); nothing else in them moved.

A campaign's JSON report opens with the ``config`` it ran under, which
names the campaign's config fields.  For those reports the golden is the
sha256 of the output with each report's ``config`` removed, plus the
config dicts the recording printed: every key printed then that is still
printed keeps its value.  Only keys that no caller ever set may stop
being printed.  Every other output is pinned in full.
"""

import hashlib
import json

import pytest

from repro import cli

CHAOS_SEED7 = [
    "chaos", "--hosts", "24", "--groups", "8", "--events", "80", "--seed", "7",
    "--live-monitor",
]
CHURN_SEED0 = ["chaos", "--churn", "50", "--switches", "5", "--seed", "0"]
CHURN_SMALL = [
    "chaos", "--churn", "12", "--switches", "2", "--hosts", "12",
    "--groups", "4", "--events", "16", "--horizon", "120", "--seed", "5",
    "--live-monitor",
]
EXPLORE = ["explore", "--groups", "2", "--hosts", "3", "--format", "json"]

#: Config fields whose value no caller (CLI, test or benchmark) ever set;
#: a campaign config may stop printing them without changing any run.
UNSET_FIELDS = {
    "retransmit_timeout",
    "check_causal",
    "drain_max_events",
    "repair_attempts",
    "repair_backoff",
}

_CHAOS_CONFIG = {
    "hosts": 24, "groups": 8, "events": 80, "seed": 7, "horizon": 400.0,
    "loss_rate": 0.01, "retransmit_timeout": 5.0, "max_retransmits": None,
    "heartbeat_interval": 5.0, "suspect_after": 3, "node_crashes": 1,
    "host_crashes": 1, "link_outages": 1, "loss_windows": 1,
    "delay_spikes": 1, "permanent_crash": True, "transfer_delay": 1.0,
    "check_causal": True,
}


def _churn_config(**run):
    config = {
        "hosts": 24, "groups": 8, "events": 60, "churn_events": 50,
        "switches": 5, "seed": 0, "horizon": 400.0, "loss_rate": 0.01,
        "retransmit_timeout": 5.0, "heartbeat_interval": 5.0,
        "suspect_after": 3, "node_crashes": 1, "host_crashes": 1,
        "link_outages": 0, "loss_windows": 1, "delay_spikes": 1,
        "permanent_crash": True, "mid_switch_crash": True,
        "transfer_delay": 1.0, "check_causal": True,
        "drain_max_events": 500000, "repair_attempts": 3,
        "repair_backoff": 25.0, "backend": "sim", "time_scale": 0.0005,
    }
    config.update(run)
    return config


#: (argv, exit code, sha256 without ``config``, the recorded config).
#: Full-output shas of the recording, as a cross-check: 8f0f4b07…,
#: 3c89263f…, 4ad34297… and 0df6265f….
REPORT_GOLDENS = {
    "chaos-seed7-live-monitor": (
        CHAOS_SEED7 + ["--format", "json"],
        0,
        "1cd921595f05e55b12c33d37e68a6dc4de662dc0e1efe88800115ad39169b897",
        _CHAOS_CONFIG,
    ),
    "chaos-seed7-dup-delivery": (
        CHAOS_SEED7 + ["--format", "json", "--monitor-mutate", "dup-delivery"],
        1,
        "d87542a0afa8062df3008784167ed9fb119066ca4e1e3dc09ec7cd97993b3cf4",
        _CHAOS_CONFIG,
    ),
    "churn-seed0": (
        CHURN_SEED0 + ["--format", "json"],
        0,
        "bbb9a26015bc5a5c8c501a3d1ac5e2f4262e7b6a238551c779e67908111ac200",
        _churn_config(),
    ),
    "churn-small-live-monitor": (
        CHURN_SMALL + ["--format", "json"],
        0,
        "0f6ece4c481ed2e6a2e7b0800fa9aee4867ad8d022f7f2b67646abb4da9c79bf",
        _churn_config(
            hosts=12, groups=4, events=16, churn_events=12, switches=2,
            seed=5, horizon=120.0,
        ),
    ),
}

#: (argv, exit code, sha256 of the whole output).
FULL_GOLDENS = {
    "chaos-seed7-text": (
        CHAOS_SEED7,
        0,
        "d6130199aa0ca3e784bd1c4c6b46623ae5d7215dbf32038daeed73b9ceb2d631",
    ),
    "churn-seed0-text": (
        CHURN_SEED0,
        0,
        "a94f97b5140cd241ae13ebd26ec0fbb4017d615883826edfdb2e198e79698c54",
    ),
    "explain-stalls": (
        ["explain", "--stalls", "--format", "json"],
        0,
        "c233193516be2ea8350365eae52740ddf0051b6d564630e6a83f2fde598b0437",
    ),
    "explore": (
        EXPLORE,
        0,
        "71d76a706ef44d981563a2a54046b6a09768dbfb68fd2fdd6aafe1d9a26e1ddd",
    ),
    "explore-skip-stamp": (
        EXPLORE + ["--messages", "2", "--mutate", "skip-stamp"],
        1,
        "70f1f696eca13dc2eaa92e55e89ed7d88f52f95a0e71ac2cc6e9ecf8323bb021",
    ),
    "explore-drop-delivery": (
        EXPLORE + ["--mutate", "drop-delivery"],
        1,
        "18324c78ecd3d2c1cc4bce618219b242e43ef200aa8f47352236e0a5a46a4f5f",
    ),
}


def _run(argv, tmp_path, capsys):
    out = tmp_path / "report.out"
    code = cli.main(argv + ["--out", str(out)])
    capsys.readouterr()
    return code, out.read_bytes()


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_GOLDENS))
def test_campaign_report_bytes_outside_config(name, tmp_path, capsys):
    argv, exit_code, sha, recorded = REPORT_GOLDENS[name]
    code, blob = _run(argv, tmp_path, capsys)
    assert code == exit_code
    payload = json.loads(blob)
    for report in payload["reports"]:
        config = report.pop("config")
        dropped = set(recorded) - set(config)
        assert dropped <= UNSET_FIELDS, dropped
        assert {key: config[key] for key in recorded if key in config} == {
            key: value for key, value in recorded.items() if key in config
        }
    assert _sha256((json.dumps(payload, indent=2) + "\n").encode()) == sha


@pytest.mark.parametrize("name", sorted(FULL_GOLDENS))
def test_cli_output_bytes(name, tmp_path, capsys):
    argv, exit_code, sha = FULL_GOLDENS[name]
    code, blob = _run(argv, tmp_path, capsys)
    assert code == exit_code
    assert _sha256(blob) == sha
