"""``DeliveryLog`` against the list of ``DeliveryRecord`` it replaced.

Random programs of every mutation the fault-injection tests and the
campaigns apply to a host's log run on a columnar log and on a plain list;
after every step the two must be indistinguishable to a reader.
"""

import collections.abc
import copy
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delivery_log import DeliveryLog, DeliveryRecord, MessageHeader
from repro.core.messages import AtomId, Stamp

FIELDS = ("time", "stamp", "payload", "msg_id", "sender", "publish_time")

records = st.builds(
    DeliveryRecord,
    time=st.floats(0, 1e6, allow_nan=False),
    stamp=st.builds(
        Stamp,
        group=st.integers(0, 3),
        group_seq=st.integers(1, 50),
        atom_seqs=st.sampled_from(
            [(), ((AtomId.ingress(1), 4),), ((AtomId.overlap(0, 2), 9), (AtomId.overlap(1, 2), 3))]
        ),
    ),
    payload=st.one_of(st.none(), st.integers(), st.text(max_size=3)),
    msg_id=st.integers(0, 40),
    sender=st.integers(0, 7),
    publish_time=st.floats(0, 1e6, allow_nan=False),
)
indices = st.integers(-12, 12)
slices = st.builds(
    slice,
    st.one_of(st.none(), indices),
    st.one_of(st.none(), indices),
    st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
)
operations = st.one_of(
    st.tuples(st.just("append"), records),
    st.tuples(st.just("insert"), indices, records),
    st.tuples(st.just("pop"), st.one_of(st.none(), indices)),
    st.tuples(st.just("set"), indices, records),
    st.tuples(st.just("set_slice"), slices, st.lists(records, max_size=5)),
    st.tuples(st.just("fill_slice"), slices, records),
    st.tuples(st.just("del"), st.one_of(indices, slices)),
    st.tuples(st.just("reverse")),
    st.tuples(st.just("extend"), st.lists(records, max_size=4)),
    st.tuples(st.just("iadd"), st.lists(records, max_size=4)),
    st.tuples(st.just("swap"), indices, indices),
)


def apply(op, log):
    """Run one operation; what it returned or the exception type it raised."""
    name, args = op[0], op[1:]
    try:
        if name == "append":
            return log.append(*args)
        if name == "insert":
            return log.insert(*args)
        if name == "pop":
            return log.pop() if args[0] is None else log.pop(args[0])
        if name in ("set", "set_slice"):
            log[args[0]] = args[1]
        elif name == "fill_slice":
            # As many records as the slice selects: the only assignment an
            # extended slice accepts.
            log[args[0]] = [args[1]] * len(range(*args[0].indices(len(log))))
        elif name == "del":
            del log[args[0]]
        elif name == "reverse":
            log.reverse()
        elif name == "extend":
            log.extend(args[0])
        elif name == "iadd":
            log += args[0]
        elif name == "swap":
            i, j = args
            log[i], log[j] = log[j], log[i]
        return None
    except (IndexError, ValueError) as exc:
        return type(exc)


def fields(sequence):
    return [tuple(getattr(r, name) for name in FIELDS) for r in sequence]


def assert_same(log: DeliveryLog, reference: list) -> None:
    assert len(log) == len(reference)
    assert fields(log) == fields(reference)
    assert log == reference and reference == log
    assert not (log != reference) and not (reference != log)
    assert list(log) == reference and list(reversed(log)) == reference[::-1]
    for index in range(-len(reference), len(reference)):
        assert log[index] == reference[index]
    with pytest.raises(IndexError):
        log[len(reference)]
    for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(-3, None), slice(5, 2)):
        assert log[cut] == reference[cut] and isinstance(log[cut], list)
    assert log.msg_ids() == array("q", [r.msg_id for r in reference])
    assert log.times() == array("d", [r.time for r in reference])
    assert [(h.stamp, h.payload, h.msg_id, h.sender, h.publish_time, h.group)
            for h in log.headers()] == [
        (r.stamp, r.payload, r.msg_id, r.sender, r.publish_time, r.group)
        for r in reference
    ]
    if reference:
        assert reference[0] in log and log.index(reference[-1]) == reference.index(reference[-1])
        assert log.count(reference[0]) == reference.count(reference[0])


@settings(max_examples=150, deadline=None)
@given(st.lists(records, max_size=6), st.lists(operations, max_size=25))
def test_every_mutation_behaves_as_on_a_list(initial, program):
    log, reference = DeliveryLog(initial), list(initial)
    assert_same(log, reference)
    for op in program:
        assert apply(op, log) == apply(op, reference), op
        assert_same(log, reference)


@settings(max_examples=50, deadline=None)
@given(st.lists(records, max_size=8), records)
def test_copies_are_equal_and_independent(initial, extra):
    log = DeliveryLog(initial)
    for clone in (
        copy.copy(log),
        copy.deepcopy(log),
        pickle.loads(pickle.dumps(log)),
        log.snapshot(),
        DeliveryLog(log),
    ):
        assert type(clone) is DeliveryLog and clone is not log
        assert clone == log == initial and fields(clone) == fields(initial)
        clone.append(extra)
        clone.reverse()
        assert log == initial and len(clone) == len(initial) + 1
    assert log.msg_ids() is not log.msg_ids()
    log.msg_ids().append(99)
    log.headers().clear()
    assert log == initial


def test_snapshot_and_columns_do_not_see_later_deliveries():
    stamp = Stamp(0, 1)
    header = MessageHeader(stamp, "p", 7, 3, 0.5)
    log = DeliveryLog()
    log.add(1.5, header)
    frozen, ids, times = log.snapshot(), log.msg_ids(), log.times()
    log.add(2.5, MessageHeader(Stamp(0, 2), "q", 8, 3, 0.75))
    assert len(frozen) == len(ids) == len(times) == 1 and len(log) == 2
    assert frozen == [DeliveryRecord(1.5, stamp, "p", 7, 3, 0.5)]
    assert log[1] == DeliveryRecord(2.5, Stamp(0, 2), "q", 8, 3, 0.75)
    # Members share the header, never a record: two reads are two objects.
    assert log.headers()[0] is header and log[0] is not log[0]


def test_it_is_a_mutable_sequence_and_only_equals_logs_and_lists():
    record = DeliveryRecord(1.0, Stamp(1, 1), None, 0, 2, 0.0)
    log = DeliveryLog([record])
    assert isinstance(log, collections.abc.MutableSequence)
    assert log == DeliveryLog([record]) and log != DeliveryLog()
    assert log != [record, record] and log != (record,) and log != "x"
    assert repr(log) == f"DeliveryLog([{record!r}])"
    with pytest.raises(TypeError):
        hash(log)
    with pytest.raises(IndexError):
        DeliveryLog().pop()
    with pytest.raises(ValueError):
        log[::2] = [record, record]
    with pytest.raises((AttributeError, TypeError)):
        log.append("not a record")
    assert log == [record]
