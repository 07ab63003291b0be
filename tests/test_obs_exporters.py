"""Exporter formats: JSONL round-trip, Chrome trace events, Prometheus text."""

import json
import re

import pytest

from repro.experiments.common import ExperimentEnv
from repro.obs import exporters
from repro.obs.registry import MetricsRegistry
from repro.runtime.trace import Trace, TraceRecord

SNAPSHOT = {
    0: frozenset({0, 1, 2, 3}),
    1: frozenset({0, 1}),
    2: frozenset({2, 3, 4}),
}


@pytest.fixture(scope="module")
def traced_run():
    env = ExperimentEnv(n_hosts=5, seed=0)
    registry = MetricsRegistry()
    fabric = env.build_fabric(
        env.membership_from(SNAPSHOT), trace=True, registry=registry
    )
    for sender, group in ((0, 0), (2, 2), (1, 1), (3, 0)):
        fabric.publish(sender, group)
    fabric.run()
    assert not fabric.pending_messages()
    return fabric, registry


class TestJsonl:
    def test_round_trips_to_equal_records(self, traced_run):
        fabric, _ = traced_run
        text = exporters.trace_to_jsonl(fabric.trace)
        restored = exporters.trace_from_jsonl(text)
        assert restored == list(fabric.trace)

    def test_file_round_trip(self, traced_run, tmp_path):
        fabric, _ = traced_run
        path = exporters.write_trace_jsonl(fabric.trace, tmp_path / "run.jsonl")
        assert exporters.read_trace_jsonl(path) == list(fabric.trace)

    def test_each_line_is_standalone_json(self, traced_run):
        fabric, _ = traced_run
        lines = exporters.trace_to_jsonl(fabric.trace).splitlines()
        assert len(lines) == len(fabric.trace)
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"time", "kind", "data"}

    def test_empty_trace(self, tmp_path):
        trace = Trace()
        assert exporters.trace_to_jsonl(trace) == ""
        path = exporters.write_trace_jsonl(trace, tmp_path / "empty.jsonl")
        assert exporters.read_trace_jsonl(path) == []


class TestChromeTrace:
    def test_document_round_trips_through_json(self, traced_run):
        fabric, _ = traced_run
        doc = exporters.trace_to_chrome(fabric.trace)
        assert json.loads(json.dumps(doc)) == doc

    def test_events_carry_required_fields(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        assert events
        for event in events:
            assert "ph" in event and "pid" in event
            if event["ph"] != "M":
                assert "ts" in event and event["ts"] >= 0

    def test_one_track_per_sequencing_node_one_slice_per_hop(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        # A visit starts at each atom record whose node is not the one of
        # the message's previous atom record.
        last_node, visits = {}, 0
        for record in fabric.trace:
            if record.kind in ("atom_seq", "atom_pass"):
                msg, node = record.data["msg"], record.data["node"]
                visits += last_node.get(msg) != node
                last_node[msg] = node
        assert len(slices) == visits > 0
        visited_nodes = {e["tid"] for e in slices}
        tracks = {
            e["tid"]
            for e in events
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["pid"] == exporters.SEQUENCING_PID
        }
        assert tracks == visited_nodes

    def test_instant_events_cover_publish_and_deliver(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        publishes = [e for e in instants if e["name"].startswith("publish")]
        delivers = [e for e in instants if e["name"].startswith("deliver")]
        assert len(publishes) == fabric.trace.count("publish")
        assert len(delivers) == fabric.trace.count("deliver")

    def test_written_file_parses(self, traced_run, tmp_path):
        fabric, _ = traced_run
        path = exporters.write_chrome_trace(fabric.trace, tmp_path / "run.trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


#: `name value` or `name{labels} value` where value is a float, inf, or nan.
PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"[-+]?((\d+(\.\d+)?([eE][-+]?\d+)?)|Inf|NaN)$"
)


class TestPrometheus:
    def test_every_line_parses(self, traced_run):
        _, registry = traced_run
        text = exporters.registry_to_prometheus(registry)
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert PROM_SAMPLE.match(line), f"unparseable sample line: {line!r}"

    def test_contains_per_link_bytes_and_holdback_gauges(self, traced_run):
        _, registry = traced_run
        text = exporters.registry_to_prometheus(registry)
        assert re.search(r'^repro_link_bytes_sent\{[^}]*\} \d+$', text, re.M)
        assert re.search(r'^repro_holdback_high_water\{host="\d+"\} \d+$', text, re.M)

    def test_histogram_exposition(self, traced_run):
        _, registry = traced_run
        text = exporters.registry_to_prometheus(registry)
        assert "# TYPE repro_delivery_latency_ms histogram" in text
        assert 'repro_delivery_latency_ms_bucket{le="+Inf"}' in text
        assert "repro_delivery_latency_ms_sum" in text
        assert "repro_delivery_latency_ms_count" in text

    def test_type_lines_match_instrument_kinds(self, traced_run):
        _, registry = traced_run
        text = exporters.registry_to_prometheus(registry)
        assert "# TYPE repro_link_bytes_sent counter" in text
        assert "# TYPE repro_holdback_occupancy gauge" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("weird", label='a"b\\c\nd').inc()
        text = exporters.registry_to_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_empty_registry_exports_empty(self):
        assert exporters.registry_to_prometheus(MetricsRegistry()) == ""


class TestTraceRecordEquality:
    def test_record_equality_includes_data(self):
        a = TraceRecord(1.0, "publish", {"msg": 1})
        b = TraceRecord(1.0, "publish", {"msg": 1})
        c = TraceRecord(1.0, "publish", {"msg": 2})
        assert a == b and a != c


class TestJsonlNumericTypes:
    """Regression: numeric fields must come back as real ints/floats so
    JourneyIndex rebuilds identically from disk and from a live trace."""

    def test_numeric_fields_round_trip_as_numbers(self, traced_run):
        fabric, _ = traced_run
        restored = exporters.trace_from_jsonl(
            exporters.trace_to_jsonl(fabric.trace)
        )
        assert restored
        for record in restored:
            assert isinstance(record.time, float)
            for key, value in record.data.items():
                assert not isinstance(value, bool)
                assert isinstance(value, (int, float, str, type(None))), (
                    record.kind,
                    key,
                    value,
                )
        seqs = [r.data["seq"] for r in restored if r.kind == "atom_seq"]
        assert seqs and all(
            isinstance(s, int) for s in seqs if s is not None
        )

    def test_integer_written_time_loads_as_float(self):
        line = json.dumps(
            {"time": 3, "kind": "publish", "data": {"msg": 0, "group": 1, "sender": 2}}
        )
        [record] = exporters.trace_from_jsonl(line)
        assert isinstance(record.time, float)
        assert record.time == 3.0
        assert isinstance(record.data["msg"], int)


class TestChromeFlowEvents:
    def test_every_deliver_has_matching_ingress_flow(self, traced_run):
        """Each flow finish ('f') binds to a start ('s') emitted at the
        message's publish: same id, cat, and name."""
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        starts = {
            (e["cat"], e["name"], e["id"]) for e in events if e["ph"] == "s"
        }
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(finishes) == fabric.trace.count("deliver")
        for event in finishes:
            assert (event["cat"], event["name"], event["id"]) in starts
            assert event["bp"] == "e"

    def test_flow_ids_are_message_ids(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        published = {r.data["msg"] for r in fabric.trace if r.kind == "publish"}
        starts = [e for e in events if e["ph"] == "s"]
        assert {e["id"] for e in starts} == published
        assert len(starts) == len(published)

    def test_flow_steps_ride_the_hop_slices(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        steps = [e for e in events if e["ph"] == "t"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(steps) == len(slices)
        slice_keys = {(e["pid"], e["tid"], e["ts"]) for e in slices}
        for step in steps:
            assert (step["pid"], step["tid"], step["ts"]) in slice_keys

    def test_flow_timestamps_ordered_start_to_finish(self, traced_run):
        fabric, _ = traced_run
        events = exporters.trace_to_chrome(fabric.trace)["traceEvents"]
        by_id = {}
        for event in events:
            if event["ph"] in ("s", "t", "f"):
                by_id.setdefault(event["id"], []).append(event)
        for flow_events in by_id.values():
            start = [e["ts"] for e in flow_events if e["ph"] == "s"]
            assert len(start) == 1
            for event in flow_events:
                assert event["ts"] >= start[0]


@pytest.fixture(scope="module")
def epoch_trace():
    """A synthetic trace with the PR 9 reconfiguration record kinds."""
    trace = Trace()
    trace.record(10.0, "epoch_switch", phase="begin", epoch=1, groups=2)
    trace.record(10.5, "epoch_fence", phase="publish", msg=7, group=0,
                 epoch=1, sender=0)
    trace.record(11.0, "epoch_fence", phase="publish", msg=8, group=1,
                 epoch=1, sender=2)
    trace.record(12.5, "epoch_fence", phase="deliver", msg=7, group=0,
                 epoch=1, host=1)
    trace.record(13.0, "epoch_fence", phase="deliver", msg=8, group=1,
                 epoch=1, host=3)
    trace.record(14.0, "epoch_switch", phase="end", epoch=1, drain_events=9)
    trace.record(30.0, "epoch_switch", phase="begin", epoch=2, groups=2)
    return trace


class TestEpochEvents:
    def test_switch_pairs_become_slices(self, epoch_trace):
        events = exporters.epoch_events(epoch_trace)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        (event,) = slices
        assert event["pid"] == exporters.EPOCHS_PID
        assert event["tid"] == 0
        assert event["ts"] == 10.0 * 1000.0
        assert event["dur"] == 4.0 * 1000.0
        assert event["args"] == {"epoch": 1, "drain_events": 9}

    def test_unmatched_begin_degrades_to_instant(self, epoch_trace):
        events = exporters.epoch_events(epoch_trace)
        instants = [
            e for e in events
            if e["ph"] == "i" and e["name"].startswith("switch")
        ]
        assert len(instants) == 1
        assert instants[0]["args"]["epoch"] == 2

    def test_fences_land_on_their_group_track(self, epoch_trace):
        events = exporters.epoch_events(epoch_trace)
        fences = [
            e for e in events
            if e["ph"] == "i" and e["name"].startswith("fence")
        ]
        assert len(fences) == 4
        for event in fences:
            assert event["pid"] == exporters.EPOCHS_PID
        by_group = {}
        for event in fences:
            by_group.setdefault(event["tid"], []).append(event)
        # tid = group + 1: group 0 -> tid 1, group 1 -> tid 2.
        assert set(by_group) == {1, 2}
        publishes = [e for e in fences if e["args"]["phase"] == "publish"]
        delivers = [e for e in fences if e["args"]["phase"] == "deliver"]
        assert {e["args"]["sender"] for e in publishes} == {0, 2}
        assert {e["args"]["host"] for e in delivers} == {1, 3}

    def test_tracks_are_named(self, epoch_trace):
        events = exporters.epoch_events(epoch_trace)
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] in ("process_name", "thread_name")
        }
        assert names[(exporters.EPOCHS_PID, 0)] in ("epochs", "epoch switches")
        assert names[(exporters.EPOCHS_PID, 1)] == "group 0 fences"
        assert names[(exporters.EPOCHS_PID, 2)] == "group 1 fences"

    def test_chrome_document_includes_epoch_events(self, epoch_trace):
        doc = exporters.trace_to_chrome(epoch_trace)
        pids = {e.get("pid") for e in doc["traceEvents"]}
        assert exporters.EPOCHS_PID in pids

    def test_epoch_free_trace_emits_no_epoch_process(self, traced_run):
        fabric, _ = traced_run
        assert exporters.epoch_events(fabric.trace) == []
        doc = exporters.trace_to_chrome(fabric.trace)
        assert exporters.EPOCHS_PID not in {
            e.get("pid") for e in doc["traceEvents"]
        }

    def test_epoch_records_round_trip_jsonl_with_types(self, epoch_trace):
        restored = exporters.trace_from_jsonl(
            exporters.trace_to_jsonl(epoch_trace)
        )
        assert restored == list(epoch_trace)
        for record in restored:
            assert isinstance(record.time, float)
            assert isinstance(record.data["epoch"], int)
            if record.kind == "epoch_fence":
                assert isinstance(record.data["msg"], int)
                assert isinstance(record.data["group"], int)
                assert record.data["phase"] in ("publish", "deliver")
