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
* *Records* and subscriber callbacks exist only while ``enabled`` is true.
* Very hot call sites emitting high-volume kinds (e.g. the fabric's
  ``atom_seq``/``atom_pass`` records) additionally guard on
  ``trace.enabled`` so the disabled path skips even packing the values;
  counts for those kinds are therefore only meaningful when tracing is on.
* The protocol's seven kinds are declared once below, each as a
  :class:`Shape` — its kind and its data keys in order — and recorded
  positionally against it: ``record(time, DELIVER, host, msg, ...)``.
  Any other kind is recorded with keywords, ``record(time, "suspect",
  node=..., silence=...)``, and gets its shape interned on first use.

**Storage contract**: a trace stores one table per :class:`Shape` — a
time column and one list column per key — and, per record, only the
index of its table, one byte in an ``array`` (four once a 257th table
appears), which gives the record order. No object is made or kept per
record: a column holds the objects the call site recorded, shared, and a
table's times are an ``array('d')`` for as long as every time it
receives is a ``float`` (a table that receives another number keeps its
times in a list from then on, so an ``int`` time reads back an ``int``).
A :class:`TraceRecord` is a view built when one is read: its ``data`` is
rebuilt from the shape's keys and the row's entries, equal field for
field and in key order to what was recorded, but not the same object
across reads. A ring (``maxlen``) is the same tables, read from its
newest ``maxlen`` records: a table's rows before those are dead, and
once the dead records are as many as the kept ones they are cut off
every table's front at once, so a ring stores at most twice its bound
and each record's share of the cuts is a constant.
"""

from array import array
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    MutableSequence,
    NamedTuple,
    Optional,
    Sequence,
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

#: (number of keys, widens, ring) -> its ``bind`` (see :func:`_binder`)
_BINDERS: Dict[Tuple[int, bool, bool], Callable[..., Callable[[Any, Tuple[Any, ...]], Any]]] = {}


def _binder(
    arity: int, widens: bool, ring: bool
) -> Callable[..., Callable[[Any, Tuple[Any, ...]], Any]]:
    """``bind(times, columns, order, index, widen, cut_at)`` ->
    ``append(time, values)``, compiled once per signature.  The appender
    unpacks ``values`` into one column each — so a record with the wrong
    number of values raises before any column grows — and appends
    ``index`` to the trace's record order.

    When it ``widens``, the times are an ``array('d')`` and a time that is
    not a ``float`` goes to ``widen(time, values)`` instead.  In a ``ring``
    it returns whether the trace now stores ``cut_at`` records.
    """
    bind = _BINDERS.get((arity, widens, ring))
    if bind is not None:
        return bind
    unpack = "".join(f"v{i}, " for i in range(arity)) or "()"
    source = [
        "def bind(times, columns, order, index, widen, cut_at):",
        "    t, o, type_, float_, len_ = times.append, order.append, type, float, len",
        *(f"    a{i} = columns[{i}].append" for i in range(arity)),
        "    def append(time, values):",
        f"        {unpack} = values",
    ]
    if widens:
        source += [
            "        if type_(time) is not float_:",
            "            return widen(time, values)",
        ]
    source.append("        t(time); " + "".join(f"a{i}(v{i}); " for i in range(arity)) + "o(index)")
    if ring:
        source.append("        return len_(order) >= cut_at")
    source.append("    return append")
    namespace: Dict[str, Any] = {}
    # the source holds no caller text, only numbers; the name is what
    # tracebacks and tracemalloc show for a column's growth
    exec(compile("\n".join(source), f"<trace table of {arity} keys>", "exec"), namespace)
    bind = _BINDERS[arity, widens, ring] = namespace["bind"]
    return bind


def _compile_views(
    kind: str, keys: Tuple[str, ...]
) -> Tuple[Callable[[Any, Tuple[Any, ...]], TraceRecord], Callable[..., TraceRecord]]:
    """``view(time, values)`` and ``row(time, *values)`` -> the record, its
    ``data`` a dict display of ``keys`` compiled once per shape: that costs
    what the call site's kwargs dict did, ``dict(zip(keys, values))`` 2.6
    times it."""
    names = "".join(f", v{i}" for i in range(len(keys)))
    by_index = "".join(f"{key!r}: values[{i}], " for i, key in enumerate(keys))
    by_name = "".join(f"{key!r}: v{i}, " for i, key in enumerate(keys))
    scope = {"new": tuple.__new__, "TraceRecord": TraceRecord}
    # the sources hold only repr()s of str, safe to compile
    view = eval(
        f"lambda time, values: new(TraceRecord, (time, {kind!r}, {{{by_index}}}))",
        scope,
    )
    row = eval(f"lambda time{names}: new(TraceRecord, (time, {kind!r}, {{{by_name}}}))", scope)
    return view, row


class Shape(str):
    """A record kind with its data keys in order: the schema of a record.

    Interned: ``Shape(kind, keys)`` returns the one instance for that pair.
    A shape *is* its kind string — equal to it and hashing as it — so the
    per-kind counts and ``select(kind)`` treat the two spellings of
    :meth:`Trace.record` alike, and the disabled path stays one dict bump.
    It follows that two shapes of one kind with different keys are equal
    too: tell shapes apart by identity.

    Attributes
    ----------
    kind:
        The kind as a plain ``str``.
    keys:
        The data keys, in recording (and ``data``) order.
    view:
        ``view(time, values)`` -> the :class:`TraceRecord` for a record of
        this shape.
    row:
        ``row(time, *values)``, the same record from a table row's entries.
    """

    kind: str
    keys: Tuple[str, ...]
    view: Callable[[Any, Tuple[Any, ...]], TraceRecord]
    row: Callable[..., TraceRecord]

    def __new__(cls, kind: str, keys: Tuple[str, ...]) -> "Shape":
        shape = _INTERNED.get((kind, keys))
        if shape is None:
            shape = _INTERNED[kind, keys] = super().__new__(cls, kind)
            shape.kind = kind
            shape.keys = keys
            shape.view, shape.row = _compile_views(kind, keys)
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


class _Table:
    """The records of one shape: a time column and one column per key."""

    __slots__ = ("shape", "index", "times", "columns", "append")

    def __init__(
        self, shape: Shape, index: int, order: MutableSequence[int], cut_at: Optional[int]
    ):
        self.shape = shape
        #: this table's entry in the trace's record order
        self.index = index
        self.times: MutableSequence[Any] = array("d")
        self.columns: Tuple[List[Any], ...] = tuple([] for _ in shape.keys)
        #: ``append(time, values)``; true when a ring should cut
        self.append: Callable[[Any, Tuple[Any, ...]], Any]
        self.bind(order, cut_at)

    def bind(self, order: MutableSequence[int], cut_at: Optional[int]) -> None:
        """(Re)make the appender over the current columns and ``order``."""
        widens = type(self.times) is not list

        def widen(time: Any, values: Tuple[Any, ...]) -> Any:
            self.times = list(self.times)
            self.bind(order, cut_at)
            return self.append(time, values)

        bind = _binder(len(self.columns), widens, cut_at is not None)
        self.append = bind(self.times, self.columns, order, self.index, widen, cut_at)

    def cut(self, rows: int) -> None:
        """Drop the oldest ``rows`` rows."""
        del self.times[:rows]
        for column in self.columns:
            del column[:rows]

    def rows(
        self, plan: List[Tuple[int, Any]], start: Optional[int]
    ) -> Iterator[Any]:
        """Per row, in order, its record when it matches every
        ``(position, wanted)`` of ``plan``, else ``None``; a record is built
        only for a match.  With a ``start`` the rows from it on are read
        from copies, so a later cut does not shift them."""
        columns: List[Any] = [self.times, *self.columns]
        if start is not None:
            columns = [column[start:] for column in columns]
        row = self.shape.row
        if not plan:
            return map(row, *columns)
        return (
            row(*fields) if all(fields[i + 1] == v for i, v in plan) else None
            for fields in zip(*columns)
        )


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
        :class:`~repro.core.api.OrderedPubSub` bus records into one).  A
        ring is stored and read as an unbounded trace is; the records it
        no longer keeps are cut off its tables ``maxlen`` at a time.
    """

    def __init__(self, enabled: bool = True, maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.enabled = enabled
        self.maxlen = maxlen
        #: stored records that make a ring cut the oldest down to ``maxlen``
        self._cut_at = None if maxlen is None else 2 * maxlen
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._reset()

    def _reset(self) -> None:
        #: one table per shape recorded, in order of first record
        self._tables: List[_Table] = []
        #: kind -> the table of its latest shape (a cache, keyed by kind)
        self._current: Dict[str, _Table] = {}
        #: per stored record, its table's index
        self._order: "array[int]" = array("B")

    def record(self, time: float, kind: str, *values: Any, **data: Any) -> None:
        """Append one record; when disabled, only bump the kind counter.

        Two spellings: ``record(time, SHAPE, *values)`` with one value per
        key of a declared :class:`Shape`, and ``record(time, kind, **data)``,
        which looks its shape up by kind and key order.  Mixing them raises
        :class:`TypeError`, and a positional record with the wrong number
        of values :class:`ValueError`; either is counted and not stored
        (both checked only while enabled).  Subscribers all receive the same
        :class:`TraceRecord`, built only when there is one to receive it.
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
        table = self._current.get(kind)
        if table is None or table.shape is not kind:
            table = self._table_of(kind)
        if table.append(time, values):
            self._cut()
        if self._subscribers:
            rec = kind.view(time, values)
            for subscriber in self._subscribers:
                subscriber(rec)

    def _table_of(self, shape: Shape) -> _Table:
        """``shape``'s table, made on its first record."""
        for table in self._tables:
            if table.shape is shape:
                break
        else:
            index = len(self._tables)
            if index == 256 and self._order.typecode == "B":
                self._order = array("I", self._order)
                for table in self._tables:
                    table.bind(self._order, self._cut_at)
            table = _Table(shape, index, self._order, self._cut_at)
            self._tables.append(table)
        self._current[shape] = table
        return table

    def _dead(self) -> int:
        """Stored records a ring no longer keeps, the oldest."""
        return 0 if self.maxlen is None else max(0, len(self._order) - self.maxlen)

    def _cut(self) -> None:
        """Cut the records a ring no longer keeps off its tables."""
        dead = self._dead()
        for table, rows in zip(self._tables, self._dead_rows(dead)):
            table.cut(rows)
        del self._order[:dead]

    def _dead_rows(self, dead: int) -> List[int]:
        """Per table, how many of the oldest ``dead`` records are its rows."""
        cut = self._order[:dead]
        count: Callable[[int], int]
        if cut.typecode == "B":
            count = cut.tobytes().count  # one C scan per table
        else:
            count = Counter(cut).__getitem__
        return [count(table.index) for table in self._tables]

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

        Reads only the tables of ``kind`` (all of them without one), merged
        in record order when there are two or more.  Filters are compared
        with the column entries, and a record is built only for a row that
        matches.
        """
        order, starts = self._live()
        cursors: List[Optional[Iterator[Any]]] = []
        for table, start in zip(self._tables, starts):
            plan = None
            if kind is None or table.shape == kind:
                plan = _plan(table.shape.keys, filters)
            cursors.append(None if plan is None else table.rows(plan, start))
        live = [cursor for cursor in cursors if cursor is not None]
        if len(live) == 1:
            yield from filter(None, live[0])
        elif live:
            for index in order:
                cursor = cursors[index]
                if cursor is not None:
                    rec = next(cursor)
                    if rec is not None:
                        yield rec

    def _live(self) -> Tuple["array[int]", Sequence[Optional[int]]]:
        """The kept records' table indexes, in record order, and each
        table's first kept row.  A ring's are a copy and a row, so a later
        cut shifts neither; an unbounded trace's are live, and ``None``."""
        if self.maxlen is None:
            return self._order, [None] * len(self._tables)
        dead = self._dead()
        return self._order[dead:], self._dead_rows(dead)

    def __len__(self) -> int:
        return len(self._order) - self._dead()

    def __iter__(self) -> Iterator[TraceRecord]:
        order, starts = self._live()
        cursors = [table.rows([], start) for table, start in zip(self._tables, starts)]
        if len(cursors) == 1:
            return cursors[0]
        return map(next, map(cursors.__getitem__, order))

    def clear(self) -> None:
        """Drop all records and counters (subscribers stay attached)."""
        self._reset()
        self._counts.clear()
