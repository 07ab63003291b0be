"""End-to-end observability: trace upgrades, event-loop stats, live gauges,
outcome invariance under observation, the `repro trace` CLI, and the figure
runner's --metrics-out."""

import json
import random

import pytest

from repro import cli
from repro.experiments.common import ExperimentEnv
from repro.experiments.runner import run_selected
from repro.faults.campaign import CampaignConfig, execute_campaign
from repro.obs import exporters
from repro.obs.forensics import JourneyIndex
from repro.obs.live import LiveMonitor, PhaseLatencyTracker
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Simulator
from repro.runtime.trace import Trace
from repro.workloads.zipf import zipf_membership


class TestTraceUpgrades:
    def test_kind_index_matches_full_scan(self):
        trace = Trace()
        for i in range(20):
            trace.record(float(i), "a" if i % 3 else "b", msg=i)
        by_index = trace.select("a")
        by_scan = [r for r in trace if r.kind == "a"]
        assert by_index == by_scan
        assert trace.select("a", msg=4) == [r for r in by_scan if r.data["msg"] == 4]

    def test_ring_buffer_keeps_newest_but_counts_all(self):
        trace = Trace(maxlen=3)
        for i in range(7):
            trace.record(float(i), "tick", i=i)
        assert len(trace) == 3
        assert [r.data["i"] for r in trace] == [4, 5, 6]
        assert trace.count("tick") == 7
        # Index is off in ring mode; select falls back to a scan.
        assert [r.data["i"] for r in trace.select("tick")] == [4, 5, 6]

    def test_ring_buffer_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            Trace(maxlen=0)

    def test_disabled_trace_bumps_counts_only(self):
        trace = Trace(enabled=False)
        seen = []
        trace.subscribe(seen.append)
        trace.record(0.0, "publish", msg=1)
        assert len(trace) == 0
        assert trace.count("publish") == 1
        assert seen == []  # subscribers only fire while enabled

    def test_subscribers_see_records_in_order(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.record(0.0, "a", x=1)
        trace.record(1.0, "b", x=2)
        assert [r.kind for r in seen] == ["a", "b"]
        trace.unsubscribe(seen.append)
        trace.record(2.0, "c")
        assert len(seen) == 2

    def test_clear_resets_index_and_counts(self):
        trace = Trace()
        trace.record(0.0, "a")
        trace.clear()
        assert len(trace) == 0
        assert trace.count("a") == 0
        assert trace.select("a") == []
        trace.record(1.0, "a")
        assert len(trace.select("a")) == 1


class TestSimulatorCounters:
    def test_pending_is_maintained_incrementally(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(3)]
        assert sim.pending == 3
        handles[1].cancel()
        assert sim.pending == 2
        handles[1].cancel()  # idempotent
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_execution_does_not_underflow(self):
        sim = Simulator()
        handle = sim.schedule(0.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        handle.cancel()
        assert sim.pending == 0

    def test_heap_high_water(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.heap_high_water == 5


def _burst_fabric(registry, trace=True, observe=None):
    """A bursty workload that actually exercises the hold-back buffers;
    ``observe(fabric)`` runs before the first publish."""
    env = ExperimentEnv(n_hosts=16, seed=0)
    rng = random.Random(0)
    snapshot = zipf_membership(16, 4, rng=rng)
    fabric = env.build_fabric(
        env.membership_from(snapshot), trace=trace, registry=registry
    )
    if observe is not None:
        observe(fabric)
    groups = sorted(snapshot)
    for _ in range(40):
        group = rng.choice(groups)
        fabric.publish(rng.choice(sorted(snapshot[group])), group)
    fabric.run()
    assert not fabric.pending_messages()
    return fabric


class TestLiveGauges:
    def test_live_high_water_agrees_with_post_hoc(self):
        registry = MetricsRegistry()
        fabric = _burst_fabric(registry)
        post_hoc = {
            host: process.delivery.buffered_high_water
            for host, process in fabric.host_processes.items()
        }
        assert max(post_hoc.values()) > 0  # the burst actually buffered
        for host, expected in post_hoc.items():
            gauge = registry.get("repro_holdback_high_water", host=host)
            assert gauge is not None
            assert gauge.value == expected

    def test_occupancy_returns_to_zero_at_quiescence(self):
        registry = MetricsRegistry()
        fabric = _burst_fabric(registry)
        for host in fabric.host_processes:
            gauge = registry.get("repro_holdback_occupancy", host=host)
            if gauge is not None:  # hosts that never buffered have no gauge updates
                assert gauge.value == 0

    def test_latency_histogram_counts_every_delivery(self):
        registry = MetricsRegistry()
        fabric = _burst_fabric(registry)
        hist = registry.get("repro_delivery_latency_ms")
        assert hist.count == fabric.trace.count("deliver")
        assert hist.max > 0

    def test_collector_mirrors_link_and_node_counters(self):
        registry = MetricsRegistry()
        fabric = _burst_fabric(registry)
        registry.collect()
        total = sum(
            i.value
            for i in registry.instruments()
            if i.name == "repro_link_bytes_sent"
        )
        assert total == sum(c.bytes_sent for c in fabric.network.channels.values())
        handled = sum(
            i.value
            for i in registry.instruments()
            if i.name == "repro_node_messages_handled"
        )
        assert handled == sum(fabric.sequencing_load().values())

    def test_disabled_registry_attaches_nothing(self):
        registry = MetricsRegistry(enabled=False)
        fabric = _burst_fabric(registry)
        assert len(registry) == 0
        for process in fabric.host_processes.values():
            assert process.delivery.on_occupancy is None


def test_observation_does_not_change_simulation_outcomes():
    """Tracing, metrics, the live monitor and the latency tracker only
    read: a bare run and a fully observed one execute the same events and
    deliver the same messages at the same times."""
    registry = MetricsRegistry()
    latency = PhaseLatencyTracker(registry=registry)
    monitor = LiveMonitor(node="observed")

    def observe(fabric):
        monitor.attach(fabric)
        fabric.trace.subscribe(latency.observe)

    bare = _burst_fabric(None, trace=False)
    observed = _burst_fabric(registry, observe=observe)
    assert monitor.violations == 0
    assert latency.summary()["delivery"]["count"] == observed.trace.count("deliver")
    assert bare.sim.events_executed == observed.sim.events_executed
    for host in bare.host_processes:
        assert [(r.msg_id, r.time) for r in bare.delivered(host)] == [
            (r.msg_id, r.time) for r in observed.delivered(host)
        ]


def test_observation_does_not_change_forensics_output():
    """A chaos campaign reports the same outcome and the same stalls
    (the `repro explain` view) with the live monitor on as with it off."""
    config = CampaignConfig(hosts=12, groups=4, events=20, seed=3, horizon=150.0)
    plain = execute_campaign(config)
    watched = execute_campaign(config, live_monitor=True)
    report = dict(watched.report)
    assert report.pop("live_monitor")["agrees_with_audit"]
    assert report == plain.report
    assert JourneyIndex(plain.fabrics[0].trace).stall_report(
        threshold=0.0
    ) == JourneyIndex(watched.fabrics[0].trace).stall_report(threshold=0.0)


class TestCli:
    def test_trace_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        metrics = tmp_path / "metrics.prom"
        code = cli.main(
            [
                "trace",
                "run",
                "--hosts",
                "12",
                "--groups",
                "3",
                "--events",
                "15",
                "--out",
                str(out),
                "--chrome",
                str(chrome),
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        records = exporters.read_trace_jsonl(out)
        assert any(r.kind == "deliver" for r in records)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        text = metrics.read_text()
        assert "repro_link_bytes_sent" in text
        assert "repro_holdback_high_water" in text

    def test_runner_metrics_out(self, tmp_path):
        metrics = tmp_path / "figs.prom"
        report = run_selected(
            [3], runs=1, paper_scale=False, n_hosts=16, metrics_out=str(metrics)
        )
        assert "metrics written" in report
        text = metrics.read_text()
        assert "repro_link_bytes_sent" in text
        assert "repro_messages_published" in text
