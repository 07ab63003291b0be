"""Drop attribution, partitions, and channel retirement in the network.

``Channel.drops`` is now split into ``loss_drops`` (Bernoulli loss) and
``outage_drops`` (link down), with ``drops`` kept as their sum; the
network aggregates both and keeps totals monotonic across the channel
retirement that failover performs.
"""

import random

import pytest

from repro.sim.events import Simulator
from repro.sim.network import Channel, Network
from repro.runtime.node import Process


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, channel):
        self.received.append((payload, self.sim.now))


def make_network(loss_rate=0.0, seed=0):
    sim = Simulator()
    network = Network(
        sim,
        loss_rate=loss_rate,
        rng=random.Random(seed) if loss_rate > 0 else None,
    )
    names = ["a", "b", "c"]
    for name in names:
        network.add_process(Sink(sim, name))
    return sim, network


def test_outage_drops_counted_separately():
    sim, network = make_network()
    channel = network.connect("a", "b", 1.0)
    channel.send("before")
    channel.fail(10.0)
    channel.send("during-1")
    channel.send("during-2")
    sim.run()
    assert channel.outage_drops == 2
    assert channel.loss_drops == 0
    assert channel.drops == 2


def test_loss_drops_counted_separately():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0, loss_rate=0.5, rng=random.Random(4))
    for i in range(200):
        channel.send(i)
    sim.run()
    assert channel.loss_drops > 0
    assert channel.outage_drops == 0
    assert channel.drops == channel.loss_drops
    assert channel.loss_drops + channel.receives == 200


def test_outage_checked_before_loss():
    # A packet dropped during an outage is attributed to the outage even
    # on a lossy channel: the wire was down, the coin never flipped.
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0, loss_rate=0.99, rng=random.Random(0))
    channel.fail(5.0)
    for i in range(50):
        channel.send(i)
    sim.run()
    assert channel.outage_drops == 50
    assert channel.loss_drops == 0


def test_network_totals_by_cause():
    sim, network = make_network()
    ab = network.connect("a", "b", 1.0)
    bc = network.connect("b", "c", 1.0)
    ab.fail(10.0)
    ab.send("lost-to-outage")
    bc.send("fine")
    sim.run()
    assert network.total_outage_drops() == 1
    assert network.total_loss_drops() == 0
    assert network.total_drops() == 1


def test_partition_cuts_both_directions():
    sim, network = make_network()
    ab = network.connect("a", "b", 1.0)
    ba = network.connect("b", "a", 1.0)
    cc = network.connect("a", "c", 1.0)
    failed = network.partition(frozenset({"a"}), 10.0, frozenset({"b"}))
    assert failed == 2
    assert ab.is_down and ba.is_down
    assert not cc.is_down


def test_partition_against_rest():
    sim, network = make_network()
    ab = network.connect("a", "b", 1.0)
    bc = network.connect("b", "c", 1.0)
    failed = network.partition(frozenset({"a"}), 10.0)
    assert failed == 1
    assert ab.is_down
    assert not bc.is_down


def test_channel_created_during_cut_inherits_outage():
    sim, network = make_network()
    network.partition(frozenset({"a"}), 10.0)
    late = network.connect("a", "c", 1.0)
    assert late.is_down
    # After the cut heals, new channels come up clean.
    sim.schedule(20.0, lambda: None)
    sim.run()
    assert not late.is_down
    fresh = network.connect("c", "a", 1.0)
    assert not fresh.is_down


def test_partition_duration_validated():
    _sim, network = make_network()
    with pytest.raises(ValueError):
        network.partition(frozenset({"a"}), 0.0)


def test_retire_channels_preserves_totals():
    sim, network = make_network()
    ab = network.connect("a", "b", 1.0)
    bc = network.connect("b", "c", 1.0)
    ab.fail(5.0)
    ab.send("dropped", size_bytes=10)
    bc.send("ok", size_bytes=7)
    sim.run()
    before = (network.total_sends(), network.total_drops())
    retired = network.retire_channels("b")
    assert retired == 2
    assert network.channels_retired == 2
    assert network.channels == {}
    after = (network.total_sends(), network.total_drops())
    assert after == before
    # Re-created channels may carry a new delay (the process moved).
    fresh = network.connect("a", "b", 3.5)
    assert fresh.delay == 3.5


def test_retired_inflight_packets_still_deliver():
    sim, network = make_network()
    ab = network.connect("a", "b", 5.0)
    ab.send("on-the-wire")
    network.retire_channels("a")
    sim.run()
    assert [p for p, _ in network.process("b").received] == ["on-the-wire"]
