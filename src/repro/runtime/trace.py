"""Structured tracing of runtime events (transport-neutral).

The metrics layer (:mod:`repro.metrics`) computes latency stretch, RDP, and
load figures from traces rather than by instrumenting protocol code, which
keeps the protocol implementation uncluttered and lets baselines share the
same analysis pipeline.  The observability layer (:mod:`repro.obs`) builds
per-message lifecycle spans from the same records and can consume them live
through subscribers; :mod:`repro.obs.forensics` goes further and rebuilds
full per-message journeys and hold-back explanations from the
flight-recorder kinds (``atom_seq``/``atom_pass``/``buffer``/``drain``/
``retransmit``), which works identically on a live trace and on a JSONL
export because every data value is a JSON primitive.

The trace is backend-agnostic: record times come from whatever clock the
runtime's node handle exposes, so the same analysis runs over a simulated
run and a live asyncio run.  (This module lived at ``repro.sim.trace``
before the transport split; that path re-exports it as a deprecated
alias.)

**Recording contract** (see :meth:`Trace.record`):

* Per-kind *counts* are maintained whether or not tracing is enabled; the
  disabled path is a single dict bump and nothing else — no record object,
  no data retention, no subscriber calls.
* *Records*, the per-kind index, and subscriber callbacks exist only while
  ``enabled`` is true.
* Very hot call sites emitting high-volume kinds (e.g. the fabric's
  per-hop ``seq_hop`` records) additionally guard on ``trace.enabled`` so
  the disabled path skips even the keyword-argument packing; counts for
  those kinds are therefore only meaningful when tracing is on.

**Storage contract**: a trace stores three columns — times, kinds and the
``data`` dicts — not records.  A :class:`TraceRecord` is a view built when
one is read, equal field for field to what was recorded but not the same
object across reads.  Nothing stored per record is an object the garbage
collector walks: times are numbers, kinds are the call sites' string
constants, and a ``data`` dict whose values are all
``int``/``float``/``str``/``None`` — every record kind in the tree — is
never tracked by CPython.  (A record tuple would be: CPython untracks only
exact tuples, and a tuple holding a dict stays tracked even then.)
"""

from array import array
from collections import deque
from functools import partial
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

__all__ = ["Trace", "TraceRecord"]


class TraceRecord(NamedTuple):
    """A single traced occurrence: immutable, compared field by field.

    A trace stores columns and builds one of these per read (and one per
    record for its subscribers, shared by all of them), so it is a tuple —
    one allocation, no per-field ``object.__setattr__`` as a frozen
    dataclass pays.

    Attributes
    ----------
    time:
        Virtual time of the occurrence.
    kind:
        A short category string, e.g. ``"publish"``, ``"deliver"``,
        ``"sequence"``, ``"forward"``.
    data:
        Free-form payload; by convention a dict with at least ``msg`` for
        message-scoped records.
    """

    time: float
    kind: str
    data: Dict[str, Any]


#: ``TraceRecord(time, kind, data)`` without the generated ``__new__``'s
#: Python frame: :meth:`Trace.record` runs once per record.
_new_record = tuple.__new__
#: ``_view((time, kind, data))`` -> the record, for ``map`` over the columns
_view = partial(_new_record, TraceRecord)


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
        self._kinds: MutableSequence[str]
        self._data: MutableSequence[Dict[str, Any]]
        #: kind -> its records' positions in the columns (None in ring mode)
        self._by_kind: Optional[Dict[str, "array[int]"]]
        if maxlen is None:
            self._times, self._kinds, self._data = [], [], []
            self._by_kind = {}
        else:
            self._times = deque(maxlen=maxlen)
            self._kinds = deque(maxlen=maxlen)
            self._data = deque(maxlen=maxlen)
            self._by_kind = None
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        #: optional phase profiler (see :mod:`repro.obs.profiler`); when
        #: attached and enabled, the record body and every subscriber are
        #: timed under the "trace" phase so observability's own cost shows
        #: up in the bench breakdown instead of inflating other phases.
        self.profiler: Optional[Any] = None

    def record(self, time: float, kind: str, **data: Any) -> None:
        """Append one record; when disabled, only bump the kind counter.

        Subscribers all receive the same :class:`TraceRecord`, built only
        when there is one to receive it.
        """
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if not self.enabled:
            return
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            profiler.enter("trace")
        else:
            profiler = None
        by_kind = self._by_kind
        if by_kind is not None:
            positions = by_kind.get(kind)
            if positions is None:
                positions = by_kind[kind] = array("q")
            positions.append(len(self._times))
        self._times.append(time)
        self._kinds.append(kind)
        self._data.append(data)
        if self._subscribers:
            rec = _new_record(TraceRecord, (time, kind, data))
            for subscriber in self._subscribers:
                subscriber(rec)
        if profiler is not None:
            profiler.exit()

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
        in ring-buffer mode.
        """
        rows: Iterator[Tuple[float, str, Dict[str, Any]]]
        if kind is not None and self._by_kind is not None:
            times, data = self._times, self._data
            rows = ((times[p], kind, data[p]) for p in self._by_kind.get(kind, ()))
        else:
            rows = zip(self._times, self._kinds, self._data)
            if kind is not None:
                rows = (row for row in rows if row[1] == kind)
        wanted = filters.items()
        for row in rows:
            if all(row[2].get(k) == v for k, v in wanted):
                yield _new_record(TraceRecord, row)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, zip(self._times, self._kinds, self._data))

    def clear(self) -> None:
        """Drop all records and counters (subscribers stay attached)."""
        self._times.clear()
        self._kinds.clear()
        self._data.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._counts.clear()
