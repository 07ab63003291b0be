"""What a run retains, counted.

The collector's cost is the number of container objects alive, so the
budget is stated in objects: a bounded number per *message*, none per
*delivery* or per *trace record*, none per packet in flight beyond the event
itself, and a long-lived bus's trace bounded in records.  A stored trace
record is also held to a byte budget.  No clocks: every assertion is a
count of ``gc.get_objects()``, of constructor calls or of bytes
``tracemalloc`` traced.
"""

import gc
import hashlib
import random
import tracemalloc
import types

import pytest

from repro.core import protocol
from repro.core.api import TRACE_RING_RECORDS, OrderedPubSub
from repro.core.delivery_log import DeliveryRecord
from repro.experiments.common import ExperimentEnv
from repro.obs.live import LiveMonitor
from repro.runtime import trace as trace_module
from repro.runtime.node import Process
from repro.runtime.trace import ATOM_PASS, DELIVER, PROTOCOL_SHAPES, Shape, Trace
from repro.sim.events import Simulator
from repro.sim.network import Channel
from tests.conftest import golden_snapshot
from tests.test_hot_path_goldens import burst_run, delivered_digest

#: tracked objects one published message may leave behind: its Message, its
#: Stamp and the shared header, 3 whatever the stamp's width, as the stamp's
#: two tuples of ints are untracked by the first collection — 13.2 on the
#: golden groups' 8-atom stamps while a stamp held an (AtomId, seq) tuple
#: per atom, and 23 before the log was columnar, 12.8 of them delivery records
PER_MESSAGE_BUDGET = 14

NARROW = frozenset(range(0, 4))
WIDE = frozenset(range(4, 12))


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def growth_of(group: int, messages: int, trace: bool = False) -> "tuple[int, int]":
    """Tracked-object growth, and deliveries made, by ``messages`` publishes
    to one group of a warmed two-group fabric run to quiescence."""
    env = ExperimentEnv(n_hosts=12, seed=0)
    fabric = env.build_fabric(
        env.membership_from({0: NARROW, 1: WIDE}), seed=0, trace=trace
    )
    sender = min(fabric.membership.members(group))
    for _ in range(20):  # channels, layouts, delivery trees, column capacity
        fabric.publish(sender, group)
    fabric.run()
    delivered = sum(len(p.delivered) for p in fabric.host_processes.values())
    before = tracked()
    for _ in range(messages):
        fabric.publish(sender, group)
    fabric.run()
    grown = tracked() - before
    assert fabric.pending_messages() == {}
    made = sum(len(p.delivered) for p in fabric.host_processes.values()) - delivered
    return grown, made


def test_a_run_retains_objects_per_message_and_none_per_delivery():
    n = 500
    narrow, narrow_deliveries = growth_of(0, n)
    twice, _ = growth_of(0, 2 * n)
    wide, wide_deliveries = growth_of(1, n)
    assert (narrow_deliveries, wide_deliveries) == (n * len(NARROW), n * len(WIDE))
    assert 0 < twice - narrow <= PER_MESSAGE_BUDGET * n
    # Twice the members, twice the deliveries, not one more object.
    assert wide <= narrow + 16


def test_a_stamp_of_numbers_is_no_tracked_object_per_atom():
    """On the golden groups, 8.2 atoms a stamp, a message leaves 3 objects."""
    n = 500
    env = ExperimentEnv(n_hosts=32, seed=0)
    fabric = env.build_fabric(
        env.membership_from(golden_snapshot()), seed=3, trace=False
    )
    rng = random.Random(4)
    members = {g: sorted(m) for g, m in fabric.membership.snapshot().items()}

    def publish(messages: int) -> None:
        for _ in range(messages):
            group = rng.choice(sorted(members))
            fabric.publish(rng.choice(members[group]), group)
            fabric.run()

    publish(200)
    before = tracked()
    publish(n)
    grown = tracked() - before
    widths = [len(m.atoms) for m in list(fabric.published.values())[-n:]]
    assert sum(widths) > 8 * n
    assert grown <= 4 * n


def test_a_trace_retains_no_object_per_record():
    """A traced fabric stores every record (8 a message on this group; each
    was a tracked object while records were stored as tuples) and still
    grows by what the untraced one grows by, give or take a constant."""
    n = 500
    for messages in (n, 2 * n):
        plain, _ = growth_of(0, messages)
        traced, _ = growth_of(0, messages, trace=True)
        assert traced - plain <= 16


def record_all(trace: Trace, shape: Shape, rows: list) -> None:
    record = trace.record
    for values in rows:
        record(1.5, shape, *values)


@pytest.mark.parametrize(
    "shape, row",
    [
        (DELIVER, lambda i: (i % 32, 1000 + i, i % 8, i % 31, i / 7)),
        (ATOM_PASS, lambda i: (1000 + i, i % 50, f"Q({i % 9},{i % 13})", i % 4 + 1)),
    ],
    ids=["deliver", "atom_pass"],
)
def test_a_record_retains_its_values_and_slots_only(shape, row):
    """Bytes and tracked objects a stored record adds beyond its values
    (built before counting): a value tuple and four slots, 114 B for
    ``deliver`` and 106 B for ``atom_pass``, where keeping the call site's
    kwargs dict instead came to 218 B for either."""
    n = 20_000
    rows = [row(i) for i in range(n)]
    trace = Trace()
    record_all(trace, shape, rows[:100])  # the index's first array, the shape's view
    before = tracked()
    tracemalloc.start()
    try:
        record_all(trace, shape, rows[100:])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown / (n - 100) <= 130
    assert tracked() - before <= 16


def test_the_protocol_records_against_its_declared_shapes(monkeypatch):
    """A traced burst (hold-back 82 deep, so every kind shows up) stores
    each of the protocol's seven kinds under its declared shape, and none
    of them went through the keyword spelling."""
    keyword_shapes: dict = {}
    monkeypatch.setattr(trace_module, "_LAST", keyword_shapes)
    env = ExperimentEnv(n_hosts=32, seed=0)
    fabric = env.build_fabric(env.membership_from(golden_snapshot()), seed=3, trace=True)
    rng = random.Random(11)
    groups = sorted(fabric.membership.groups())
    for _ in range(300):
        group = rng.choice(groups)
        fabric.publish(rng.choice(sorted(fabric.membership.members(group))), group)
    fabric.run()
    trace = fabric.trace
    declared = {shape.kind: shape for shape in PROTOCOL_SHAPES}
    stored = set()
    for shape, values in zip(trace._shapes, trace._values):
        if shape.kind in declared:
            assert shape is declared[shape.kind] and len(values) == len(shape.keys)
            stored.add(shape.kind)
    assert stored == declared.keys()
    assert keyword_shapes.keys().isdisjoint(declared)


def bus_of(hosts: int = 8) -> OrderedPubSub:
    bus = OrderedPubSub(n_hosts=hosts, seed=1)
    for host in range(4):
        bus.subscribe(host, "a")
    for host in range(2, 6):
        bus.subscribe(host, "b")
    return bus


def written(bus: OrderedPubSub, messages: int) -> int:
    """Publish ``messages`` to both topics in turn, run, count the records."""
    trace = bus.fabric.trace
    seen = [0]

    def count(record) -> None:
        seen[0] += 1

    trace.subscribe(count)
    for index in range(messages):
        bus.publish(index % 4 + 2 * (index % 2), "ab"[index % 2])
    bus.run()
    trace.unsubscribe(count)
    return seen[0]


def test_a_long_lived_bus_keeps_a_ring_and_stops_growing():
    bus = bus_of()
    messages = total = 0
    while total < 4 * TRACE_RING_RECORDS:
        total += written(bus, 500)
        messages += 500
    trace = bus.fabric.trace
    assert len(trace) == TRACE_RING_RECORDS == trace.maxlen

    # The control is the same bus with its trace off: published messages
    # are still retained (an item of their own), records are not.
    control = bus_of()
    control.fabric.trace.enabled = False
    written(control, messages)
    before = tracked()
    assert written(bus, messages) == total
    ring = tracked() - before
    before = tracked()
    written(control, messages)
    quiet = tracked() - before
    assert len(trace) == TRACE_RING_RECORDS
    assert ring - quiet <= 16, (ring, quiet)


def test_the_ring_and_its_monitor_survive_an_epoch_switch():
    bus = bus_of()
    monitor = LiveMonitor(retain_audit=False)
    bus.add_fabric_observer(monitor.attach)
    written(bus, 50)
    first = bus.fabric
    bus.subscribe(6, "a")  # an epoch switch at the next publish
    written(bus, 50)
    assert bus.fabric is not first and bus.fabric.epoch == first.epoch + 1
    assert bus.fabric.trace.maxlen == first.trace.maxlen == TRACE_RING_RECORDS
    assert bus.fabric.trace is not first.trace
    deliveries = sum(len(bus.delivered(host)) for host in range(len(bus.hosts)))
    assert monitor.delivered_total == deliveries == 50 * 4 + 25 * 4 + 25 * 5
    assert (monitor.violations, monitor.warnings) == (0, 0)


@pytest.fixture()
def record_constructions(monkeypatch):
    """Counts the records the fabric builds for ``on_deliver``, at their one
    construction site (``_new_record``, i.e. ``tuple.__new__``)."""
    calls = [0]

    def counted(cls, fields):
        assert cls is DeliveryRecord
        calls[0] += 1
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(protocol, "_new_record", counted)
    return calls


def test_one_record_per_delivery_and_only_for_a_reader(record_constructions):
    """The golden burst (hold-back 82 deep, then a fence per group) builds a
    record per delivery when something listens and none when nothing does —
    never one for the arrival and another for its release."""
    silent = burst_run()
    deliveries = sum(len(p.delivered) for p in silent.host_processes.values())
    assert deliveries == 2452 and record_constructions[0] == 0

    # The same burst with a listener attached before the first publish.
    heard = []
    env = ExperimentEnv(n_hosts=32, seed=0)
    fabric = env.build_fabric(
        env.membership_from(golden_snapshot()), seed=3, trace=False
    )
    fabric.on_deliver = lambda host_id, record: heard.append((host_id, record))
    rng = random.Random(11)
    groups = sorted(fabric.membership.groups())
    for _ in range(300):
        group = rng.choice(groups)
        fabric.publish(rng.choice(sorted(fabric.membership.members(group))), group)
    fabric.run()
    fabric.inject_epoch_fences(1)
    fabric.run()
    assert record_constructions[0] == len(heard) == deliveries
    assert max(p.delivery.buffered_high_water for p in fabric.host_processes.values()) == 82
    assert delivered_digest(fabric) == delivered_digest(silent)
    by_host = {h: iter(p.delivered) for h, p in fabric.host_processes.items()}
    assert all(record == next(by_host[host_id]) for host_id, record in heard)


def test_golden_burst_reads_the_same_by_column():
    """The pinned (time, msg_id) sequence of every host, read off the
    columns without building a record."""
    fabric = burst_run()
    digest = hashlib.sha256()
    for host_id in sorted(fabric.host_processes):
        log = fabric.host_processes[host_id].delivered
        digest.update(f"h{host_id}:".encode())
        digest.update(
            ",".join(
                f"{m}@{t!r}" for m, t in zip(log.msg_ids(), log.times())
            ).encode()
        )
    assert digest.hexdigest() == delivered_digest(fabric)
    assert digest.hexdigest() == (
        "48bca2e63b180f1871f2b504f7954eef8efd9215cf856550df30bc467d58f5e9"
    )


class Sink(Process):
    def receive(self, payload, channel):
        pass


def test_sends_in_flight_do_not_each_hold_a_bound_method():
    sim = Simulator()
    channel = Channel(sim, Sink(sim, "a"), Sink(sim, "b"), delay=5.0)
    channel.send(0)

    def methods() -> int:
        gc.collect()
        return sum(type(o) is types.MethodType for o in gc.get_objects())

    before = methods()
    for i in range(1000):
        channel.send(i)
    assert sim.pending == 1001
    assert methods() - before <= 2
    sim.run()
    assert channel.receives == 1001 and channel.in_flight == 0


def test_a_packet_queued_behind_the_head_is_a_slot_in_three_columns():
    """Ten thousand packets sent behind one armed head: each costs its key,
    its seq and a payload reference (24 B, ≤ 32 with the columns' spare
    capacity) and no tracked object — where a timer per packet cost ≈ 256 B
    and three (handle, heap tuple, argument tuple).  A drained channel and
    a never-used one hold no backlog at all."""
    n = 10_000
    sim = Simulator()
    busy = Channel(sim, Sink(sim, "a"), Sink(sim, "b"), delay=5.0)
    never = Channel(sim, Sink(sim, "c"), Sink(sim, "d"), delay=5.0)
    payloads = [object() for _ in range(n)]  # built before counting
    busy.send("head")
    before = tracked()
    tracemalloc.start()
    try:
        for payload in payloads:
            busy.send(payload)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert busy.in_flight == sim.pending == n + 1
    assert grown / n <= 32
    assert tracked() - before <= 16
    sim.run()
    assert busy.receives == n + 1 and busy.in_flight == 0
    assert busy._backlog is None and never._backlog is None


def test_a_channel_that_never_drains_keeps_what_is_in_flight():
    """A send every 0.5 ms on a 10 ms link keeps ≈ 20 packets in flight
    for 20 000 sends without the channel ever going idle: its backlog
    columns stay bounded by what is in flight (plus the delivered front,
    cut off once it is 1 024 slots and half the columns), in FIFO order."""
    sim = Simulator()
    got = []

    class Recorder(Process):
        def receive(self, payload, channel):
            got.append(payload)

    channel = Channel(sim, Sink(sim, "a"), Recorder(sim, "b"), delay=10.0)
    longest = 0
    for index in range(20_000):
        sim.schedule_at(index * 0.5, channel.send, index)
    while sim.step():
        backlog = channel._backlog
        if backlog is not None:
            longest = max(longest, len(backlog.payloads))
    assert got == list(range(20_000))
    assert channel.in_flight_high_water <= 21
    assert 1024 <= longest <= 2 * 1024 + 21
