"""Unit tests for channels and the network registry."""

import random

import pytest

from repro.runtime.asyncio_backend import AsyncioTransport
from repro.runtime.explore_backend import ExploreTransport
from repro.runtime.node import Process
from repro.runtime.sim_backend import SimTransport
from repro.sim.events import Simulator
from repro.sim.network import Channel, Network


class Sink(Process):
    """Records (payload, time) of everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, channel):
        self.received.append((payload, self.sim.now))


def make_pair(delay=2.0, loss_rate=0.0, rng=None):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, delay, loss_rate=loss_rate, rng=rng)
    return sim, a, b, channel


def test_send_delivers_after_delay():
    sim, _a, b, channel = make_pair(delay=3.0)
    channel.send("hello")
    sim.run()
    assert b.received == [("hello", 3.0)]


def test_fifo_order_preserved():
    sim, _a, b, channel = make_pair(delay=1.0)
    for i in range(10):
        channel.send(i)
    sim.run()
    assert [p for p, _ in b.received] == list(range(10))


def test_fifo_across_time():
    sim, _a, b, channel = make_pair(delay=5.0)
    channel.send("first")
    sim.schedule(1.0, channel.send, "second")
    sim.run()
    assert [p for p, _ in b.received] == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, -1.0)


def test_loss_rate_requires_rng():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, 1.0, loss_rate=0.5)


def test_loss_rate_out_of_range():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, 1.0, loss_rate=1.0, rng=random.Random(0))


def test_loss_drops_packets():
    sim, _a, b, channel = make_pair(delay=1.0, loss_rate=0.5, rng=random.Random(42))
    for i in range(200):
        channel.send(i)
    sim.run()
    assert channel.drops > 0
    assert len(b.received) == 200 - channel.drops
    assert 40 < channel.drops < 160  # roughly half


def test_send_returns_false_on_drop():
    sim, _a, _b, channel = make_pair(delay=1.0, loss_rate=0.999999, rng=random.Random(1))
    results = [channel.send(i) for i in range(20)]
    assert not any(results)


def test_counters():
    sim, a, b, channel = make_pair(delay=1.0)
    channel.send("x", size_bytes=100)
    channel.send("y", size_bytes=50)
    sim.run()
    assert channel.sends == 2
    assert channel.bytes_sent == 150
    assert a.messages_sent == 2
    assert b.messages_received == 2


def test_network_registers_processes():
    sim = Simulator()
    net = Network(sim)
    a = net.add_process(Sink(sim, "a"))
    assert net.process("a") is a
    assert "a" in net
    assert "b" not in net


def test_network_duplicate_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    with pytest.raises(ValueError):
        net.add_process(Sink(sim, "a"))


def test_network_connect_creates_channel_once():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    c1 = net.connect("a", "b", 2.0)
    c2 = net.connect("a", "b", 2.0)
    assert c1 is c2


def test_network_connect_conflicting_delay_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    net.connect("a", "b", 2.0)
    with pytest.raises(ValueError):
        net.connect("a", "b", 3.0)


def test_network_channels_are_directional():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    ab = net.connect("a", "b", 2.0)
    ba = net.connect("b", "a", 4.0)
    assert ab is not ba
    assert ab.delay == 2.0 and ba.delay == 4.0


def test_network_channel_lookup_missing():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    with pytest.raises(KeyError):
        net.channel("a", "b")


def test_network_aggregate_counters():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    net.connect("a", "b", 1.0).send("x", size_bytes=10)
    net.connect("b", "a", 1.0).send("y", size_bytes=5)
    sim.run()
    assert net.total_sends() == 2


def test_channel_repr():
    _sim, _a, _b, channel = make_pair()
    assert "->" in repr(channel)


def test_process_receive_not_implemented():
    sim = Simulator()
    p = Process(sim, "p")
    with pytest.raises(NotImplementedError):
        p.receive(None, None)


# -- one network contract, every backend ---------------------------------------
#
# Each backend builds the same Network; only the step that puts an admitted
# packet on the wire differs (a timer heap, the same heap on a live loop, a
# controller-popped wire queue).  These tests drive the network a backend
# built through that backend's own ``run``.

#: a cut that outlives any live run (a virtual millisecond is a real
#: microsecond at the live test scale)
LONG = 1e9


def make_backend(name):
    if name == "sim":
        return SimTransport(seed=0)
    if name == "asyncio":
        return AsyncioTransport(seed=0, time_scale=1e-6)
    return ExploreTransport(seed=0)


@pytest.fixture(params=("sim", "asyncio", "explore"))
def backend(request):
    runtime = make_backend(request.param)
    yield runtime
    runtime.close()


def wired(runtime, names=("a", "b", "c")):
    net = runtime.transport
    for name in names:
        net.add_process(Sink(runtime.scheduler, name))
    return net


def payloads(net, name):
    return [p for p, _ in net.process(name).received]


def test_contract_fifo_same_instant_and_near_tie(backend):
    net = wired(backend)
    channel = net.connect("a", "b", 2.0)
    for i in range(5):
        channel.send(i)
    # Near ties: sends whose arrival times differ by far less than the delay.
    for i in range(5, 10):
        backend.scheduler.schedule(1e-9 * (i - 4), channel.send, i)
    backend.run()
    assert payloads(net, "b") == list(range(10))
    assert channel.receives == 10 and channel.in_flight == 0


def test_contract_fifo_when_the_delay_shrinks_behind_a_packet(backend):
    """Two sends share one clamped arrival (the delay halves in between, as
    a delay spike's restore does).  On the simulator the second send's key,
    ``0.4 + (1.4 - 0.4)``, rounds one ulp below the first's,
    ``0.3 + (1.4 - 0.3)``: FIFO must hold in the key the heap orders by,
    not only in the arrival float."""
    net = wired(backend)
    channel = net.connect("a", "b", 1.1)

    def shrink_and_send():
        channel.delay = 0.55
        channel.send("second")

    backend.scheduler.schedule(0.3, channel.send, "first")
    backend.scheduler.schedule(0.4, shrink_and_send)
    backend.run()
    assert payloads(net, "b") == ["first", "second"]
    assert channel.receives == 2 and channel.in_flight == 0


def test_contract_conflicting_delay_refused_until_retired(backend):
    net = wired(backend)
    original = net.connect("a", "b", 2.0)
    with pytest.raises(ValueError):
        net.connect("a", "b", 3.0)
    assert net.channel("a", "b") is original
    # A failover retires the edge first; the re-created channel may move.
    net.retire_channels("a")
    assert net.connect("a", "b", 3.0).delay == 3.0


def test_contract_channel_created_mid_partition_inherits_outage(backend):
    net = wired(backend)
    assert net.partition(frozenset({"a"}), LONG) == 0
    crossing = net.connect("a", "b", 1.0)
    inside = net.connect("b", "c", 1.0)
    assert crossing.is_down and not inside.is_down
    assert crossing.send("lost") is False
    assert inside.send("kept") is True
    backend.run()
    assert payloads(net, "b") == [] and payloads(net, "c") == ["kept"]
    assert net.total_outage_drops() == 1 and net.total_drops() == 1


def test_contract_retirement_keeps_totals_monotonic(backend):
    net = wired(backend)
    net.connect("a", "b", 1.0).send("x", size_bytes=10)
    net.connect("b", "a", 1.0).send("y", size_bytes=5)
    net.partition(frozenset({"c"}), LONG)
    net.connect("c", "a", 1.0).send("z", size_bytes=7)
    backend.run()
    totals = ("total_sends", "total_drops", "total_loss_drops", "total_outage_drops")
    before = {name: getattr(net, name)() for name in totals}
    assert before["total_sends"] == 3 and before["total_outage_drops"] == 1
    assert net.retire_channels("a") == 3
    assert {name: getattr(net, name)() for name in totals} == before
    assert net.retired_edges == {("a", "b"), ("b", "a"), ("c", "a")}
    assert net.channels == {}
    # Reconnecting an edge un-retires it; new traffic adds to the totals.
    net.connect("a", "b", 4.0).send("w", size_bytes=1)
    assert net.retired_edges == {("b", "a"), ("c", "a")}
    assert net.total_sends() == 4


def test_contract_packets_on_a_retired_channel_still_deliver(backend):
    net = wired(backend)
    old = net.connect("a", "b", 5.0)
    old.send("before")
    net.retire_channels("a")
    net.connect("a", "b", 1.0).send("after")
    backend.run()
    assert sorted(payloads(net, "b")) == ["after", "before"]
    assert old.receives == 1 and old.in_flight == 0
