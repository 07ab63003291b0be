"""What a receiver keeps of its deliveries: columns, not records.

A run delivers each message once per member, so whatever a host retains
per *delivery* is multiplied by the group width — and anything it retains
as a container object is walked by CPython's cyclic collector on every
full pass for the rest of the run.  The log therefore keeps two flat
``array`` columns (delivery time, message id) and one list of references
to the :class:`MessageHeader` that every member's copy of a message
shares: nothing the collector tracks is created per delivery.

To its readers the log is still the list of :class:`DeliveryRecord` it
replaced — indexing, slicing, iteration, comparison with a list, every
``MutableSequence`` mutation, ``copy``/``deepcopy``/``pickle`` — with the
records built on demand, equal field for field to the ones a list would
have held but not the same objects from one read to the next.  Code
inside a timed region reads the columns (:meth:`DeliveryLog.msg_ids`,
:meth:`~DeliveryLog.times`, :meth:`~DeliveryLog.headers`) instead.
"""

from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    MutableSequence,
    NamedTuple,
    Tuple,
    Union,
    overload,
)

from repro.core.messages import Stamp


@dataclass(frozen=True)
class MessageHeader:
    """The facts of one sequenced message that do not depend on the member.

    Built once at distribution and sent as is to every member: each
    member's packet, hold-back entry and delivery-log row is the one
    instance.
    """

    __slots__ = ("stamp", "payload", "msg_id", "sender", "publish_time")

    stamp: Stamp
    payload: Any
    msg_id: int
    sender: int
    publish_time: float

    @property
    def group(self) -> int:
        """The destination group (with ``msg_id`` and ``sender`` what the
        run audit reads of a delivery besides its time)."""
        return self.stamp.group

    def size_bytes(self) -> int:
        """Wire size as a distribution packet: the stamp."""
        return self.stamp.size_bytes()

    def __reduce__(self) -> Tuple[Any, ...]:
        # Frozen and slotted: the default reconstruction assigns the slots
        # one by one, which a frozen dataclass refuses.
        return (
            type(self),
            (self.stamp, self.payload, self.msg_id, self.sender,
             self.publish_time),
        )


class DeliveryRecord(NamedTuple):
    """One delivered message as observed by a receiver host.

    A tuple, compared field by field: the fabric builds one per delivery
    for ``on_deliver`` and the log one per read, each with one
    ``tuple.__new__`` and none of a frozen dataclass's per-field
    ``object.__setattr__``.
    """

    time: float
    stamp: Stamp
    payload: Any
    msg_id: int
    sender: int
    publish_time: float

    @property
    def group(self) -> int:
        """The destination group — with ``msg_id``, ``sender`` and ``time``
        what :func:`repro.check.verify_run` reads of a delivery."""
        return self.stamp.group


def _header_of(record: DeliveryRecord) -> MessageHeader:
    return MessageHeader(
        record.stamp, record.payload, record.msg_id, record.sender,
        record.publish_time,
    )


def _record_at(time: float, header: MessageHeader) -> DeliveryRecord:
    return tuple.__new__(
        DeliveryRecord,
        (time, header.stamp, header.payload, header.msg_id, header.sender,
         header.publish_time),
    )


class DeliveryLog(MutableSequence[DeliveryRecord]):
    """A host's deliveries in delivery order: a sequence of
    :class:`DeliveryRecord` stored as columns."""

    __slots__ = ("_times", "_ids", "_headers")

    def __init__(self, records: Iterable[DeliveryRecord] = ()) -> None:
        self._times = array("d")
        self._ids = array("q")
        self._headers: List[MessageHeader] = []
        self.extend(records)

    # -- the delivery path -------------------------------------------------

    def add(self, time: float, header: MessageHeader) -> None:
        """Log one delivery of ``header``'s message without a record."""
        self._times.append(time)
        self._ids.append(header.msg_id)
        self._headers.append(header)

    # -- column readers (copies: the log may grow under a reader) ----------

    def msg_ids(self) -> "array[int]":
        """The message id of every delivery, in delivery order."""
        return self._ids[:]

    def times(self) -> "array[float]":
        """The delivery time of every delivery, in delivery order."""
        return self._times[:]

    def headers(self) -> List[MessageHeader]:
        """The shared header of every delivery, in delivery order."""
        return self._headers[:]

    def snapshot(self) -> "DeliveryLog":
        """An independent log of the deliveries so far (three flat copies,
        no record built); what ``copy.copy`` returns."""
        clone = DeliveryLog()
        clone._times = self._times[:]
        clone._ids = self._ids[:]
        clone._headers = self._headers[:]
        return clone

    __copy__ = snapshot

    # -- the sequence of records -------------------------------------------

    def __len__(self) -> int:
        return len(self._headers)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return map(_record_at, self._times, self._headers)

    @overload
    def __getitem__(self, index: int) -> DeliveryRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[DeliveryRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DeliveryRecord, List[DeliveryRecord]]:
        if isinstance(index, slice):
            return list(map(_record_at, self._times[index], self._headers[index]))
        return _record_at(self._times[index], self._headers[index])

    def __setitem__(self, index: Any, value: Any) -> None:
        if isinstance(index, slice):
            # Materialised first: the records may be views of this log.
            records = list(value)
            times = array("d", [r.time for r in records])
            ids = array("q", [r.msg_id for r in records])
            # A list and an array refuse the same slice assignments, so
            # once the first column has taken it the others will.
            self._headers[index] = [_header_of(r) for r in records]
            self._times[index] = times
            self._ids[index] = ids
            return
        header = _header_of(value)
        self._times[index] = value.time
        self._ids[index] = value.msg_id
        self._headers[index] = header

    def __delitem__(self, index: Union[int, slice]) -> None:
        del self._headers[index]
        del self._times[index]
        del self._ids[index]

    def insert(self, index: int, value: DeliveryRecord) -> None:
        header = _header_of(value)
        self._times.insert(index, value.time)
        self._ids.insert(index, value.msg_id)
        self._headers.insert(index, header)

    def append(self, value: DeliveryRecord) -> None:
        self.add(value.time, _header_of(value))

    def reverse(self) -> None:
        self._headers.reverse()
        self._times.reverse()
        self._ids.reverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeliveryLog):
            return self._times == other._times and self._headers == other._headers
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"DeliveryLog({list(self)!r})"
