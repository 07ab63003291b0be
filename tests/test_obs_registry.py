"""Metric instruments: counters, gauges, histogram bucket edges, null mode,
and the process-level RSS / GC collectors."""

import gc
import math

import pytest

from repro.obs import exporters
from repro.obs.registry import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.resources import (
    GcPauseSampler,
    peak_rss_bytes,
    register_process_collectors,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("m_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_set_total_mirrors_external_count(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.set_total(1024)
        assert c.value == 1024

    def test_identity_per_label_set(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", host=1)
        b = reg.counter("hits", host=1)
        other = reg.counter("hits", host=2)
        assert a is b
        assert a is not other
        a.inc()
        assert reg.counter("hits", host=1).value == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)


class TestGauge:
    def test_set_and_inc(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(3)
        assert g.value == 8

    def test_set_max_is_high_water(self):
        g = MetricsRegistry().gauge("peak")
        for v in (3, 7, 2, 7, 1):
            g.set_max(v)
        assert g.value == 7


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0, 100.0))
        # Boundary values land in the bucket whose bound equals them
        # (Prometheus `le` semantics), values above the last bound overflow.
        for v in (0.5, 1.0, 10.0, 10.1, 1000.0):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative() == [(1.0, 2), (10.0, 3), (100.0, 4), (math.inf, 5)]

    def test_sum_count_and_high_water(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        for v in (0.25, 4.0, 40.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(44.25)
        assert h.max == 40.0

    def test_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(10.0, 1.0))

    def test_default_buckets_are_log_spaced(self):
        h = MetricsRegistry().histogram("lat")
        assert h.buckets == log_buckets()


class TestLogBuckets:
    def test_spans_range_and_is_increasing(self):
        buckets = log_buckets(0.1, 1000.0, per_decade=2)
        assert buckets[0] == pytest.approx(0.1)
        assert buckets[-1] == 1000.0
        assert list(buckets) == sorted(buckets)
        assert len(buckets) == 9  # 4 decades * 2 + 1

    def test_ratio_between_adjacent_bounds_is_constant(self):
        buckets = log_buckets(1.0, 100.0, per_decade=4)
        ratios = [b / a for a, b in zip(buckets, buckets[1:])]
        for ratio in ratios:
            assert ratio == pytest.approx(10 ** 0.25, rel=1e-6)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(10.0, 1.0)


class TestRegistry:
    def test_type_conflict_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_collectors_run_on_collect(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda r: r.gauge("pulled").set(42))
        assert reg.get("pulled") is None
        reg.collect()
        assert reg.get("pulled").value == 42

    def test_instruments_sorted_for_stable_export(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", x=2)
        reg.counter("a", x=1)
        names = [(i.name, i.labels) for i in reg.instruments()]
        assert names == sorted(names)


class TestDisabledRegistry:
    def test_instruments_are_shared_null_noops(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("n")
        g = reg.gauge("g")
        h = reg.histogram("h")
        assert c is NULL_INSTRUMENT and g is NULL_INSTRUMENT and h is NULL_INSTRUMENT
        c.inc()
        g.set(9)
        g.set_max(9)
        h.observe(1.0)
        assert c.value == 0 and h.count == 0
        assert len(reg) == 0

    def test_collect_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        fired = []
        reg.register_collector(lambda r: fired.append(1))
        reg.collect()
        assert fired == []

    def test_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.counter("anything") is NULL_INSTRUMENT


def test_process_collectors_export_rss_and_gc():
    rss = peak_rss_bytes()
    assert rss is None or rss > 0
    registry = MetricsRegistry()
    sampler = GcPauseSampler()
    register_process_collectors(registry, sampler=sampler)
    with sampler:
        gc.collect()
    if sampler.supported:
        assert sampler.pauses >= 1
        assert sampler.pause_seconds >= 0
    text = exporters.registry_to_prometheus(registry)
    assert "repro_gc_collections" in text
    assert "repro_gc_pauses" in text
    if rss is not None:
        assert "repro_process_peak_rss_bytes" in text
