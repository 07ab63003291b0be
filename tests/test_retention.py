"""What a run retains, counted.

The collector's cost is the number of container objects alive, so the
budget is stated in objects: a bounded number per *message*, none per
*delivery*, none per packet in flight beyond the event itself.  No clocks:
every assertion is a count of ``gc.get_objects()`` or of constructor calls.
"""

import gc
import hashlib
import random
import types

import pytest

from repro.core.delivery_log import DeliveryRecord
from repro.experiments.common import ExperimentEnv
from repro.runtime.node import Process
from repro.sim.events import Simulator
from repro.sim.network import Channel
from tests.conftest import golden_snapshot
from tests.test_hot_path_goldens import burst_run, delivered_digest

#: tracked objects one published message may leave behind (its Message and
#: stamp list, the Stamp with its tuples, the shared header): 4 on these
#: atom-free groups, 11.6 on the benchmark's stamps — where it was 23
#: before the log was columnar, 12.8 of them delivery records
PER_MESSAGE_BUDGET = 14

NARROW = frozenset(range(0, 4))
WIDE = frozenset(range(4, 12))


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def growth_of(group: int, messages: int) -> "tuple[int, int]":
    """Tracked-object growth, and deliveries made, by ``messages`` publishes
    to one group of a warmed two-group fabric run to quiescence."""
    env = ExperimentEnv(n_hosts=12, seed=0)
    fabric = env.build_fabric(
        env.membership_from({0: NARROW, 1: WIDE}), seed=0, trace=False
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


@pytest.fixture()
def record_constructions(monkeypatch):
    """Counts ``DeliveryRecord(...)`` calls for the duration of a test."""
    calls = [0]
    construct = DeliveryRecord.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(DeliveryRecord, "__init__", counted)
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
