"""Goldens of an observed run, and the ``TraceRecord`` contract.

The golden values were recorded on the commit before observation was made
cheap (tuple trace records, atom labels kept per ``AtomId``, the linear
audit, the O(1) order window) and verified to pass against that commit's
``src``: what an observer is *told* — every record, every alert, every
finding, every report byte — may not change with what it costs.
(``repro explain --stalls`` is pinned by ``test_hot_path_goldens``.)
"""

import copy
import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.faults.campaign import CampaignConfig, execute_campaign
from repro.obs.exporters import trace_from_jsonl, trace_to_jsonl
from repro.obs.forensics import JourneyIndex
from repro.obs.live.top import read_trace_jsonl
from repro.runtime.trace import Trace, TraceRecord

ROOT = Path(__file__).resolve().parent.parent

CHAOS = [
    "chaos", "--hosts", "24", "--groups", "8", "--events", "80", "--seed", "7",
    "--live-monitor", "--format", "json",
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_traced_run_exports_unchanged(tmp_path, capsys):
    jsonl, chrome = tmp_path / "run.jsonl", tmp_path / "run.trace.json"
    assert cli.main([
        "trace", "run", "--hosts", "24", "--groups", "6", "--events", "40",
        "--out", str(jsonl), "--chrome", str(chrome),
    ]) == 0
    capsys.readouterr()
    # The export as it was with one ``atom_pass`` per atom (sha ead4c423…),
    # each of its 31 ``atom_pass`` lines given ``"atoms": 1``: every
    # pass-through run of this run is one atom long.
    assert (
        sha256(jsonl)
        == "f34b26ca37033f1d6db9623bfef022bee28bc8d93ec790e311c3b430b303a6af"
    )
    assert (
        sha256(chrome)
        == "85a252fcc9ee5f4a321672a2272d2000431d83acd15da085df23eb8400f046a7"
    )
    labels = {
        json.loads(line)["data"].get("atom")
        for line in jsonl.read_text().splitlines()
    }
    assert {"Q(0,1)", "Q(1,4)"} <= labels
    # Both readers give back the records the export was written from.
    records = read_trace_jsonl(str(jsonl))
    assert records == trace_from_jsonl(jsonl.read_text())
    assert trace_to_jsonl(records) + "\n" == jsonl.read_text()


def test_trace_run_tables_unchanged(capsys):
    """``trace run``'s per-group phase table (read from journeys) and its
    percentile table, recorded when the phase table was read from
    ``seq_hop`` records; only the header's record count moved, by the 83
    ``seq_hop`` records the run no longer writes."""
    assert cli.main(
        ["trace", "run", "--hosts", "24", "--groups", "6", "--events", "40"]
    ) == 0
    head, tables = capsys.readouterr().out.split("\n", 1)
    assert head.endswith("358 events, 580 trace records")
    assert "0           16.591      4.685          19.251           40.526" in tables
    assert (
        hashlib.sha256(tables.encode()).hexdigest()
        == "09dead1aabaa528ca684965197991290758d5fb4cc6b2f3d762dde31bc21f9fc"
    )


def visits_sha256(records) -> str:
    """sha256 over every journey's sequencing-node visits as sorted
    ``[start, node, entry atom]`` rows: what the ``seq_hop`` records of the
    same run held as ``[time, node, atom]``."""
    rows = sorted(
        (visit.start, visit.node, visit.atom)
        for journey in JourneyIndex(records).journeys.values()
        for visit in journey.visits()
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(list(row)).encode())
    return digest.hexdigest()


def test_chaos_visits_equal_the_seq_hop_records_they_replace():
    """Loss, crashes and failover: the visits derived from atom records
    hash as the 167 ``seq_hop`` records of the same campaign did."""
    run = execute_campaign(CampaignConfig(hosts=24, groups=8, events=80, seed=7))
    assert visits_sha256(run.fabrics[0].trace) == (
        "5ec927044cf826662669bd8bf9677c5f525367535bd227e3f6bbb8ac6e3f058f"
    )


def test_chaos_live_monitor_report_bytes_unchanged(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    assert cli.main(CHAOS + ["--out", str(out)]) == 0
    capsys.readouterr()
    # 8f0f4b07… before ``config`` listed the one campaign config's fields,
    # c3d72acc… before detection latency was measured from the suspicion
    # that failed over; test_cli_goldens pins every byte outside ``config``.
    assert (
        sha256(out)
        == "fc45ecedbe1d21062b426cca1b577573a8dcc6a23f845e86053ae6f10d9f6ec8"
    )
    live = json.loads(out.read_text())["reports"][0]["live_monitor"]
    assert live["agrees_with_audit"] is True
    assert live["violations"] == 0 and live["findings"] == []
    assert {alert["rule"] for alert in live["alerts"]} == {"LM303"}
    assert len(live["alerts"]) == 39


def test_dup_delivery_mutation_verdict_unchanged(tmp_path, capsys):
    out = tmp_path / "mutated.json"
    assert cli.main(
        CHAOS + ["--monitor-mutate", "dup-delivery", "--out", str(out)]
    ) == 1
    capsys.readouterr()
    # 3c89263f… before ``config`` listed the one campaign config's fields,
    # b9f1d91c… before detection latency was measured from the suspicion
    # that failed over.
    assert (
        sha256(out)
        == "b8d68bebdfb0dbf6e138d04e02b2b18d77cdad0502db0a34eca87ee3dd568286"
    )
    report = json.loads(out.read_text())["reports"][0]
    codes = [finding["code"] for finding in report["findings"]]
    assert codes == ["RT300"] * 8 + ["RT301"] + ["RT305"] * 8
    live = report["live_monitor"]
    assert live["agrees_with_audit"] is True
    assert (len(live["alerts"]), live["violations"]) == (119, 80)
    assert live["findings"] == report["findings"]


_SIM_OBSERVED = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from tests.test_observation_goldens import visits_sha256
import workloads
spec = next(s for s in workloads.SIM_SPECS if s.name == "sim_observed")
bed = workloads.SimBed(spec)
traffic = workloads.Traffic(bed, 0, workloads.Completion())
for _ in range(workloads.planned_rounds(spec, 8.0)):
    traffic.round(spec.round_msgs, spec.gap_ms)
counts = {}
digest = hashlib.sha256()
for record in bed.fabric.trace:
    counts[record.kind] = counts.get(record.kind, 0) + 1
    digest.update(
        json.dumps([record.time, record.kind, record.data], sort_keys=True).encode()
    )
print(json.dumps({
    "records": len(bed.fabric.trace), "counts": counts,
    "sha256": digest.hexdigest(), "alerts": len(bed.monitor.alerts),
    "window": sum(map(len, bed.monitor._order_window.values())),
    "visits": visits_sha256(bed.fabric.trace),
}))
"""


def test_sim_observed_trace_records_unchanged():
    """The benchmark's observed workload, seed 0: every record of the run
    (in a child process: ``bench/`` is not a package).  The digest is the
    one the run had with one ``atom_pass`` per atom (237 044 records, 121 454
    of them ``atom_pass``, sha f75b8676…) after merging each maximal run of
    adjacent ``atom_pass`` records of one message at one node into one with
    ``atoms`` its length; the visits derived from the atom records hash as
    the ``seq_hop`` records they replaced did."""
    done = subprocess.run(
        [sys.executable, "-c", _SIM_OBSERVED, str(ROOT / "bench")],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {
        "records": 143782,
        "counts": {
            "publish": 4390, "atom_seq": 29922,
            "atom_pass": 28192, "distribute": 4390, "deliver": 63640,
            "buffer": 6624, "drain": 6624,
        },
        "sha256": "1cb6888ca6a74c8d86a49e65f525252689134bf9bd4052ab722ac9fa6b17f615",
        "alerts": 0,
        "window": 0,
        "visits": "64039480403ef72cd2459887d598dd929842c57e7ebaa8646286128041f83739",
    }


# ---------------------------------------------------------------------------
# TraceRecord
# ---------------------------------------------------------------------------


def test_trace_record_fields_and_equality():
    record = TraceRecord(1.5, "deliver", {"msg": 3, "host": 1})
    assert (record.time, record.kind, record.data) == (1.5, "deliver", {"msg": 3, "host": 1})
    assert record == TraceRecord(1.5, "deliver", {"host": 1, "msg": 3})
    assert record != TraceRecord(1.5, "deliver", {"msg": 4, "host": 1})
    assert record != TraceRecord(2.5, "deliver", {"msg": 3, "host": 1})
    assert record != TraceRecord(1.5, "drain", {"msg": 3, "host": 1})
    assert TraceRecord(time=1.5, kind="deliver", data={}) == TraceRecord(1.5, "deliver", {})


def test_trace_record_is_immutable():
    record = TraceRecord(1.5, "deliver", {"msg": 3})
    for name in ("time", "kind", "data", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_trace_record_pickles_and_copies():
    record = TraceRecord(1.5, "buffer", {"msg": 3, "blocked_on": "Q(0,1)"})
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(pickle.loads(pickle.dumps(record))) is TraceRecord
    duplicate = copy.deepcopy(record)
    assert duplicate == record and duplicate.data is not record.data


def test_trace_hands_subscribers_the_record_it_keeps():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(2.0, "publish", msg=1, group=0, sender=4)
    (kept,) = trace.select("publish")
    # A view is rebuilt from the stored values: equal, key order included,
    # to what was recorded and to what the subscriber got, not the same dict.
    recorded = TraceRecord(2.0, "publish", {"msg": 1, "group": 0, "sender": 4})
    assert seen == [kept] == [recorded]
    assert list(seen[0].data.items()) == list(kept.data.items()) == [
        ("msg", 1), ("group", 0), ("sender", 4)
    ]
