"""The columnar ``Trace`` against the list of records it replaced.

The reference below is the trace as it was when it stored one
``TraceRecord`` per record (a list, a per-kind list of records, a deque in
ring mode).  Random programs of records, queries, clears and subscriber
changes run on both, unbounded and as rings of 1–5 records; after every
step the two must be indistinguishable to a reader.  Records come in both
spellings: by keyword, and positionally against a declared ``Shape``,
whose fields the reference receives by keyword.
"""

from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.trace import DELIVER, PUBLISH, Shape, Trace, TraceRecord


class ListTrace:
    """The record-per-entry trace, kept as the oracle for the columnar one."""

    def __init__(self, enabled: bool = True, maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.enabled = enabled
        self.maxlen = maxlen
        self._records: Any = deque(maxlen=maxlen) if maxlen else []
        self._by_kind: Optional[Dict[str, List[TraceRecord]]] = None if maxlen else {}
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []

    def record(self, time: float, kind: str, **data: Any) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if not self.enabled:
            return
        rec = TraceRecord(time, kind, data)
        self._records.append(rec)
        if self._by_kind is not None:
            self._by_kind.setdefault(kind, []).append(rec)
        for subscriber in self._subscribers:
            subscriber(rec)

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def select(self, kind: Optional[str] = None, **filters: Any) -> List[TraceRecord]:
        return list(self.iter_select(kind, **filters))

    def iter_select(self, kind: Optional[str] = None, **filters: Any) -> Iterator[TraceRecord]:
        source: Any
        if kind is not None and self._by_kind is not None:
            source = self._by_kind.get(kind, ())
            kind = None
        else:
            source = self._records
        for record in source:
            if kind is not None and record.kind != kind:
                continue
            if all(record.data.get(k) == v for k, v in filters.items()):
                yield record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def clear(self) -> None:
        self._records.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._counts.clear()


KINDS = ("publish", "deliver", "buffer", "atom_pass")
KEYS = ("msg", "host", "group", "blocked_on")
#: recorded positionally; each kind is also recorded by keyword with other
#: key sets, and their keys reach outside KEYS so filters name keys a
#: shape lacks
SHAPES = (
    PUBLISH,
    Shape("deliver", ("host", "msg")),
    Shape("buffer", ("blocked_on", "msg", "group", "host", "expected_seq")),
    Shape("atom_pass", ()),
)
values = st.one_of(
    st.none(),
    st.integers(-2, 3),
    st.sampled_from([0.5, 1.0, -0.0, 2.25]),
    st.sampled_from(["", "Q(0,1)", "a"]),
)
times = st.one_of(st.integers(0, 5), st.floats(0, 5, allow_nan=False))
kinds = st.sampled_from(KINDS)
fields = st.dictionaries(st.sampled_from(KEYS), values, max_size=3)
by_keyword = st.tuples(times, kinds, fields)
positional = st.sampled_from(SHAPES).flatmap(
    lambda shape: st.tuples(
        times, st.just(shape), st.tuples(*[values] * len(shape.keys))
    )
)
queried_kinds = st.one_of(st.none(), kinds, st.just("missing"), st.sampled_from(SHAPES))
filters = st.dictionaries(st.sampled_from(KEYS + ("sender",)), values, max_size=2)
subscribers = st.integers(0, 2)
operations = st.one_of(
    # a run of records between queries, so rings evict and kinds interleave
    st.tuples(
        st.just("record"),
        st.lists(st.one_of(by_keyword, positional), min_size=1, max_size=8),
    ),
    st.tuples(st.just("select"), queried_kinds, filters),
    st.tuples(st.just("iter_select"), queried_kinds, filters),
    st.tuples(st.just("iter")),
    st.tuples(st.just("len")),
    st.tuples(st.just("count"), queried_kinds),
    st.tuples(st.just("clear")),
    st.tuples(st.just("subscribe"), subscribers),
    st.tuples(st.just("unsubscribe"), subscribers),
)


def exact(records: Any) -> List[Any]:
    """Field for field, with the time's type (an ``int`` time stays ``int``),
    the kind a plain ``str`` and the data's key order (all reach the export
    bytes)."""
    return [
        (type(r), type(r.time), r.time, type(r.kind), r.kind, list(r.data.items()))
        for r in records
    ]


class Side:
    """One implementation with its three subscriber logs."""

    def __init__(self, trace: Any):
        self.trace = trace
        self.logs: List[List[TraceRecord]] = [[], [], []]

    def apply(self, op: tuple) -> Any:
        name, args = op[0], op[1:]
        trace = self.trace
        if name == "record":
            for time, kind, data in args[0]:
                if isinstance(data, dict):
                    trace.record(time, kind, **data)
                elif isinstance(trace, ListTrace):
                    # the oracle gets the positional record's fields by name
                    trace.record(time, kind.kind, **dict(zip(kind.keys, data)))
                else:
                    trace.record(time, kind, *data)
            return None
        if name == "select":
            return exact(trace.select(args[0], **args[1]))
        if name == "iter_select":
            return exact(list(trace.iter_select(args[0], **args[1])))
        if name == "iter":
            return exact(trace)
        if name == "len":
            return len(trace)
        if name == "count":
            return trace.count(args[0] or "publish")
        if name == "clear":
            return trace.clear()
        if name == "subscribe":
            return trace.subscribe(self.logs[args[0]].append)
        return trace.unsubscribe(self.logs[args[0]].append)


@settings(max_examples=300, deadline=None)
@given(
    maxlen=st.one_of(st.none(), st.integers(1, 5)),
    enabled=st.booleans(),
    program=st.lists(operations, min_size=1, max_size=40),
)
def test_random_programs_read_the_same_on_columns_and_on_a_list(maxlen, enabled, program):
    columns = Side(Trace(enabled=enabled, maxlen=maxlen))
    reference = Side(ListTrace(enabled=enabled, maxlen=maxlen))
    for op in program:
        assert columns.apply(op) == reference.apply(op), op
        assert [exact(log) for log in columns.logs] == [exact(log) for log in reference.logs]
        assert len(columns.trace) == len(reference.trace)
        assert exact(columns.trace) == exact(reference.trace)
        for kind in KINDS:
            assert columns.trace.count(kind) == reference.trace.count(kind)
            assert exact(columns.trace.select(kind)) == exact(reference.trace.select(kind))


def test_every_subscriber_gets_one_shared_record():
    trace = Trace()
    first: List[TraceRecord] = []
    second: List[TraceRecord] = []
    trace.subscribe(first.append)
    trace.subscribe(second.append)
    trace.record(1, "publish", msg=0, group=2, sender=1)
    trace.record(2, PUBLISH, 1, 2, 1)
    assert first == second == [
        TraceRecord(1, "publish", {"msg": 0, "group": 2, "sender": 1}),
        TraceRecord(2, "publish", {"msg": 1, "group": 2, "sender": 1}),
    ]
    assert all(a is b for a, b in zip(first, second)) and type(first[0].time) is int


def test_shapes_are_interned_and_equal_to_their_kind():
    assert Shape("deliver", DELIVER.keys) is DELIVER
    assert DELIVER == "deliver" and hash(DELIVER) == hash("deliver")
    other = Shape("deliver", ("msg",))
    assert other == DELIVER and other is not DELIVER
    trace = Trace()
    trace.record(1.0, "deliver", host=0, msg=1, group=2, sender=3, publish_time=0.5)
    trace.record(2.0, DELIVER, 0, 2, 2, 3, 1.0)
    trace.record(3.0, "deliver", msg=3)
    assert [r.data["msg"] for r in trace.select("deliver")] == [1, 2, 3]
    assert trace.count("deliver") == trace.count(DELIVER) == 3
    assert trace._shapes[0] is trace._shapes[1] is DELIVER
    assert trace._shapes[2] is other


def test_the_two_spellings_do_not_mix():
    trace = Trace()
    with pytest.raises(TypeError):
        trace.record(1.0, "publish", 1, 2, 3)
    with pytest.raises(TypeError):
        trace.record(1.0, PUBLISH, 1, 2, 3, extra=4)
    with pytest.raises(TypeError):
        trace.record(1.0, PUBLISH, msg=1, group=2, sender=3)
    assert len(trace) == 0
