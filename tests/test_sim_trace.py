"""Unit tests for the trace recorder."""

from repro.runtime.trace import Trace, TraceRecord


def test_record_and_len():
    trace = Trace()
    trace.record(1.0, "publish", msg=1)
    trace.record(2.0, "deliver", msg=1, host=3)
    assert len(trace) == 2


def test_count_by_kind():
    trace = Trace()
    for i in range(3):
        trace.record(float(i), "publish", msg=i)
    trace.record(5.0, "deliver", msg=0)
    assert trace.count("publish") == 3
    assert trace.count("deliver") == 1
    assert trace.count("missing") == 0


def test_select_by_kind():
    trace = Trace()
    trace.record(1.0, "a", v=1)
    trace.record(2.0, "b", v=2)
    assert [r.kind for r in trace.select("a")] == ["a"]


def test_select_by_data_filter():
    trace = Trace()
    trace.record(1.0, "deliver", host=1, msg=10)
    trace.record(2.0, "deliver", host=2, msg=10)
    trace.record(3.0, "deliver", host=1, msg=11)
    hits = trace.select("deliver", host=1)
    assert [r.data["msg"] for r in hits] == [10, 11]


def test_select_all_kinds():
    trace = Trace()
    trace.record(1.0, "a")
    trace.record(2.0, "b")
    assert len(trace.select()) == 2


def test_disabled_trace_keeps_counts_only():
    trace = Trace(enabled=False)
    trace.record(1.0, "publish", msg=1)
    assert len(trace) == 0
    assert trace.count("publish") == 1


def test_clear():
    trace = Trace()
    trace.record(1.0, "a")
    trace.clear()
    assert len(trace) == 0
    assert trace.count("a") == 0


def test_records_are_frozen():
    record = TraceRecord(1.0, "a", {"x": 1})
    try:
        record.time = 2.0
        raised = False
    except Exception:
        raised = True
    assert raised


def test_iteration_order():
    trace = Trace()
    for i in range(5):
        trace.record(float(i), "k", i=i)
    assert [r.data["i"] for r in trace] == list(range(5))


def test_iter_select_lazy():
    trace = Trace()
    trace.record(1.0, "a", v=1)
    iterator = trace.iter_select("a")
    assert next(iterator).data["v"] == 1
