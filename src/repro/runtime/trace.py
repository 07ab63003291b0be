"""Structured tracing of runtime events (transport-neutral).

The metrics layer (:mod:`repro.metrics`) computes latency stretch, RDP, and
load figures from traces rather than by instrumenting protocol code, which
keeps the protocol implementation uncluttered and lets baselines share the
same analysis pipeline.  The observability layer (:mod:`repro.obs`)
consumes the same records live through subscribers, and
:mod:`repro.obs.forensics` rebuilds per-message journeys and hold-back
explanations from the flight-recorder kinds (``atom_seq``/``atom_pass``/
``buffer``/``drain``/``retransmit``), which works identically on a live
trace and on a JSONL export because every data value is a JSON primitive.

The trace is backend-agnostic: record times come from whatever clock the
runtime's node handle exposes, so the same analysis runs over a simulated
run and a live asyncio run.

**Recording contract** (see :meth:`Trace.record`):

* Per-kind *counts* are maintained whether or not tracing is enabled; the
  disabled path is a single dict bump and nothing else — no record object,
  no data retention, no subscriber calls.
* *Records*, the per-kind index, and subscriber callbacks exist only while
  ``enabled`` is true.
* Very hot call sites emitting high-volume kinds (e.g. the fabric's
  ``atom_seq``/``atom_pass`` records) additionally guard on
  ``trace.enabled`` so the disabled path skips even packing the values;
  counts for those kinds are therefore only meaningful when tracing is on.
* The protocol's seven kinds are declared once below, each as a
  :class:`Shape` — its kind and its data keys in order — and recorded
  positionally against it: ``record(time, DELIVER, host, msg, ...)``.
  Any other kind is recorded with keywords, ``record(time, "suspect",
  node=..., silence=...)``, and gets its shape interned on first use.

**Storage contract**: a trace stores three columns — times, shapes and
value tuples — not records, and no per-record dict.  A
:class:`TraceRecord` is a view built when one is read: its ``data`` is
rebuilt from the shape's keys and the stored values, equal field for field
and in key order to what was recorded, but not the same object across
reads.  Nothing stored per record is an object the garbage collector
walks: times are numbers, a shape is shared by every record of its kind and
keys, and a value tuple holding only ``int``/``float``/``str``/``None`` —
every record kind in the tree — is untracked by CPython at its first
collection.
"""

from array import array
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    MutableSequence,
    NamedTuple,
    Optional,
    Tuple,
)

__all__ = [
    "ATOM_PASS",
    "ATOM_SEQ",
    "BUFFER",
    "DELIVER",
    "DISTRIBUTE",
    "DRAIN",
    "PROTOCOL_SHAPES",
    "PUBLISH",
    "Shape",
    "Trace",
    "TraceRecord",
]


class TraceRecord(NamedTuple):
    """A single traced occurrence: immutable, compared field by field.

    A trace stores columns and builds one of these per read (and one per
    record for its subscribers, shared by all of them), its ``data`` dict
    included, so it is a tuple — one allocation, no per-field
    ``object.__setattr__`` as a frozen dataclass pays.

    Attributes
    ----------
    time:
        Virtual time of the occurrence.
    kind:
        A short category string, e.g. ``"publish"``, ``"deliver"``,
        ``"sequence"``, ``"forward"``.
    data:
        Free-form payload; by convention a dict with at least ``msg`` for
        message-scoped records.  Keys come in the order the record's
        :class:`Shape` declares.
    """

    time: float
    kind: str
    data: Dict[str, Any]


#: (kind, keys) -> its one Shape
_INTERNED: Dict[Tuple[str, Tuple[str, ...]], "Shape"] = {}
#: kind -> the shape of its latest keyword-spelled record, tried before
#: ``_INTERNED``; a cache, so which shape it holds changes no result
_LAST: Dict[str, "Shape"] = {}


def _compile_view(
    kind: str, keys: Tuple[str, ...]
) -> Callable[[Any, Tuple[Any, ...]], TraceRecord]:
    """``view(time, values)`` -> the record, its ``data`` a dict display of
    ``keys`` over ``values`` compiled once per shape: that costs what the
    call site's kwargs dict did, ``dict(zip(keys, values))`` 2.6 times it."""
    items = "".join(f"{key!r}: values[{i}], " for i, key in enumerate(keys))
    return eval(  # the source holds only repr()s of str, safe to compile
        f"lambda time, values: new(TraceRecord, (time, {kind!r}, {{{items}}}))",
        {"new": tuple.__new__, "TraceRecord": TraceRecord},
    )


class Shape(str):
    """A record kind with its data keys in order: the schema of a record.

    Interned: ``Shape(kind, keys)`` returns the one instance for that pair.
    A shape *is* its kind string — equal to it and hashing as it — so the
    per-kind counts, the per-kind index and ``select(kind)`` treat the two
    spellings of :meth:`Trace.record` alike, and the disabled path stays one
    dict bump.  It follows that two shapes of one kind with different keys
    are equal too: tell shapes apart by identity.

    Attributes
    ----------
    kind:
        The kind as a plain ``str``.
    keys:
        The data keys, in recording (and ``data``) order.
    view:
        ``view(time, values)`` -> the :class:`TraceRecord` for a record of
        this shape.
    """

    kind: str
    keys: Tuple[str, ...]
    view: Callable[[Any, Tuple[Any, ...]], TraceRecord]

    def __new__(cls, kind: str, keys: Tuple[str, ...]) -> "Shape":
        shape = _INTERNED.get((kind, keys))
        if shape is None:
            shape = _INTERNED[kind, keys] = super().__new__(cls, kind)
            shape.kind = kind
            shape.keys = keys
            shape.view = _compile_view(kind, keys)
        return shape

    def __repr__(self) -> str:
        return f"Shape({self.kind!r}, {self.keys!r})"


# The protocol's records (:mod:`repro.core.protocol`), one per phase step.
#: ingress: a message leaves its publisher
PUBLISH = Shape("publish", ("msg", "group", "sender"))
#: sequencing: a run of ``atoms`` consecutive atoms at one node, from
#: ``atom``, forwarded the message without numbering it (one record per
#: maximal run; a node runs a message through its atoms at one instant)
ATOM_PASS = Shape("atom_pass", ("msg", "node", "atom", "atoms"))
#: sequencing: an atom numbered the message (overlap ``seq``, ingress
#: ``group_seq``, or both; the other is ``None``)
ATOM_SEQ = Shape("atom_seq", ("msg", "node", "atom", "seq", "group_seq"))
#: distribution: the last node fans the message out to the group
DISTRIBUTE = Shape("distribute", ("msg", "node", "members"))
#: a member hands the message to its application
DELIVER = Shape("deliver", ("host", "msg", "group", "sender", "publish_time"))
#: a member holds the message back, blocked on one missing number
BUFFER = Shape(
    "buffer",
    ("host", "msg", "group", "blocked_kind", "blocked_on", "have_seq", "expected_seq"),
)
#: a held-back message is released by the arrival that filled its gap
DRAIN = Shape("drain", ("host", "msg", "group", "unblocked_by", "waited"))
PROTOCOL_SHAPES = (
    PUBLISH, ATOM_PASS, ATOM_SEQ, DISTRIBUTE, DELIVER, BUFFER, DRAIN,
)


def _view(time: Any, shape: Shape, values: Tuple[Any, ...]) -> TraceRecord:
    return shape.view(time, values)


def _plan(
    keys: Tuple[str, ...], filters: Dict[str, Any]
) -> Optional[List[Tuple[int, Any]]]:
    """``(position, wanted)`` per filter for records with ``keys``, or
    ``None`` when no such record can match: a key the record lacks reads
    as ``None``, as ``data.get`` does."""
    plan = []
    for key, wanted in filters.items():
        if key in keys:
            plan.append((keys.index(key), wanted))
        elif wanted is not None:
            return None
    return plan


class Trace:
    """An append-only log of :class:`TraceRecord` with simple querying.

    Parameters
    ----------
    enabled:
        Record nothing but per-kind counts when false.
    maxlen:
        Optional bound turning the log into a ring buffer that keeps only
        the newest ``maxlen`` records — for long-running runs where only
        the recent past matters (the long-lived
        :class:`~repro.core.api.OrderedPubSub` bus records into one).  The
        per-kind index is disabled in ring-buffer mode (every eviction
        would shift every stored position), so ``select(kind=...)`` falls
        back to a scan.
    """

    def __init__(self, enabled: bool = True, maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.enabled = enabled
        self.maxlen = maxlen
        # Three columns appended together, so in ring mode they evict
        # together too.
        self._times: MutableSequence[float]
        self._shapes: MutableSequence[Shape]
        self._values: MutableSequence[Tuple[Any, ...]]
        #: kind -> its records' positions in the columns (None in ring mode)
        self._by_kind: Optional[Dict[str, "array[int]"]]
        if maxlen is None:
            self._times, self._shapes, self._values = [], [], []
            self._by_kind = {}
        else:
            self._times = deque(maxlen=maxlen)
            self._shapes = deque(maxlen=maxlen)
            self._values = deque(maxlen=maxlen)
            self._by_kind = None
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []

    def record(self, time: float, kind: str, *values: Any, **data: Any) -> None:
        """Append one record; when disabled, only bump the kind counter.

        Two spellings: ``record(time, SHAPE, *values)`` with one value per
        key of a declared :class:`Shape`, and ``record(time, kind, **data)``,
        which looks its shape up by kind and key order.  Mixing them raises
        :class:`TypeError` (checked only while enabled).  The number of
        values is the call site's contract, not checked here: the
        protocol's sites are held to it by ``tests/test_retention.py``.
        Subscribers all receive the same :class:`TraceRecord`, built only
        when there is one to receive it.
        """
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if not self.enabled:
            return
        if type(kind) is not Shape:
            if values:
                raise TypeError(f"positional values need a Shape, not {kind!r}")
            keys = tuple(data)
            shape = _LAST.get(kind)
            if shape is None or shape.keys != keys:
                shape = _LAST[kind] = Shape(kind, keys)
            kind, values = shape, tuple(data.values())
        elif data:
            raise TypeError(f"{kind!r} takes its values positionally")
        by_kind = self._by_kind
        if by_kind is not None:
            positions = by_kind.get(kind)
            if positions is None:
                positions = by_kind[kind] = array("q")
            positions.append(len(self._times))
        self._times.append(time)
        self._shapes.append(kind)
        self._values.append(values)
        if self._subscribers:
            rec = kind.view(time, values)
            for subscriber in self._subscribers:
                subscriber(rec)

    def count(self, kind: str) -> int:
        """Number of records of ``kind`` (counted even when disabled)."""
        return self._counts.get(kind, 0)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Call ``callback(record)`` for every record appended while enabled.

        Subscribers run synchronously on the recording path — keep them
        cheap (the observability hooks bump counters and histograms only).
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Remove a subscriber added with :meth:`subscribe` (idempotent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def select(self, kind: Optional[str] = None, **filters: Any) -> List[TraceRecord]:
        """Return records matching ``kind`` and all data-field filters."""
        return list(self.iter_select(kind, **filters))

    def iter_select(
        self, kind: Optional[str] = None, **filters: Any
    ) -> Iterator[TraceRecord]:
        """Lazily yield records matching ``kind`` and data-field filters.

        Kind-filtered queries use the per-kind index (no full scan) except
        in ring-buffer mode.  Filters are compared with the stored values by
        key position, and a record is built only for a row that matches.
        """
        rows: Iterator[Tuple[float, Shape, Tuple[Any, ...]]]
        if kind is not None and self._by_kind is not None:
            times, shapes, values = self._times, self._shapes, self._values
            rows = (
                (times[p], shapes[p], values[p]) for p in self._by_kind.get(kind, ())
            )
        else:
            rows = zip(self._times, self._shapes, self._values)
            if kind is not None:
                rows = (row for row in rows if row[1] == kind)
        #: id(shape) -> its plan (shapes of one kind are equal, not identical)
        plans: Dict[int, Optional[List[Tuple[int, Any]]]] = {}
        for time, shape, stored in rows:
            if id(shape) not in plans:
                plans[id(shape)] = _plan(shape.keys, filters)
            plan = plans[id(shape)]
            if plan is not None and all(stored[i] == v for i, v in plan):
                yield shape.view(time, stored)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, self._times, self._shapes, self._values)

    def clear(self) -> None:
        """Drop all records and counters (subscribers stay attached)."""
        self._times.clear()
        self._shapes.clear()
        self._values.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._counts.clear()
