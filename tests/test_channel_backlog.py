"""A channel's backlog against one heap entry per packet.

Only the packet at the head of a channel holds a timer; the ones sent
behind it wait in the channel's backlog under the ``(time, seq)`` key the
simulator handed out at send time (:mod:`repro.sim.network`).  The oracle
is the scheme that replaced: every packet goes on the heap when it is
sent.  Random programs over several channels — same-instant sends, timers
that send, cancels, ``step``, ``run(until=...)``, ``run(max_events=...)``
and a channel retired with packets in flight — must fire the same
``(time, seq, payload)`` sequence on both, with the same clock, pending
count, event count and per-channel in-flight counts after every step.

Every delay is a multiple of 1/8, so no sum rounds: a channel's keys
never invert, the simulator's key clamp never engages, and the two
orders must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.node import Process
from repro.sim.events import Simulator
from repro.sim.network import Channel, Network

#: directed channels of the programs and their constant delays
EDGES = {
    ("a", "b"): 1.0,
    ("b", "a"): 0.5,
    ("a", "c"): 2.5,
    ("c", "b"): 0.125,
}
ROUTES = sorted(EDGES)


class AllInHeapChannel(Channel):
    """Every packet on the heap at send time: the scheme before backlogs."""

    def _queue(self, arrival, payload):
        self.node.schedule_at(arrival, self._on_arrival, payload)


class AllInHeapNetwork(Network):
    channel_class = AllInHeapChannel


class TappedSimulator(Simulator):
    """Records the ``(time, seq)`` key of every event it fires."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def step(self):
        self._drop_cancelled()
        if self._heap:
            time, seq, _handle = self._heap[0]
            self.keys.append((time, seq))
        return super().step()


class Sink(Process):
    def __init__(self, sim, name, fired):
        super().__init__(sim, name)
        self.fired = fired

    def receive(self, payload, channel):
        self.fired.append(payload)


class Side:
    """One simulator, one network, and the record of what fired."""

    def __init__(self, network_class):
        self.sim = TappedSimulator()
        self.fired = []
        self.net = network_class(self.sim)
        for name in "abc":
            self.net.add_process(Sink(self.sim, name, self.fired))
        #: every channel ever created, in creation order (retired included)
        self.channels = []
        self.timers = []

    def send(self, route, tag):
        channel = self.net.connect(*route, EDGES[route])
        if channel not in self.channels:
            self.channels.append(channel)
        channel.send(tag)

    def timer(self, delay, tag, route):
        def fire():
            self.fired.append(tag)
            if route is not None:
                self.send(route, f"{tag}>")

        self.timers.append(self.sim.schedule(delay, fire))

    def observed(self):
        sim = self.sim
        return (
            [key + (tag,) for key, tag in zip(sim.keys, self.fired)],
            len(sim.keys) == len(self.fired),
            sim.now,
            sim.pending,
            sim.events_executed,
            [(c.in_flight, c.in_flight_high_water) for c in self.channels],
        )


EIGHTHS = st.integers(0, 24).map(lambda n: n / 8)
ROUTE = st.sampled_from(ROUTES)

OPS = st.one_of(
    st.tuples(st.just("send"), ROUTE, st.integers(1, 4)),
    st.tuples(st.just("timer"), EIGHTHS, st.one_of(st.none(), ROUTE)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), EIGHTHS),
    st.tuples(st.just("run_max"), st.integers(1, 6)),
    st.tuples(st.just("retire"), st.sampled_from("abc")),
)


def apply(side, op, tag):
    kind = op[0]
    if kind == "send":
        for index in range(op[2]):
            side.send(op[1], f"{tag}.{index}")
    elif kind == "timer":
        side.timer(op[1], tag, op[2])
    elif kind == "cancel":
        if side.timers:
            side.timers[op[1] % len(side.timers)].cancel()
    elif kind == "step":
        return side.sim.step()
    elif kind == "run_until":
        return side.sim.run(until=side.sim.now + op[1])
    elif kind == "run_max":
        return side.sim.run(max_events=op[1])
    else:
        return side.net.retire_channels(op[1])
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_backlog_fires_what_one_heap_entry_per_packet_fires(program):
    mine, oracle = Side(Network), Side(AllInHeapNetwork)
    for tag, op in enumerate(program):
        assert apply(mine, op, tag) == apply(oracle, op, tag)
        assert mine.observed() == oracle.observed()
    assert mine.sim.run() == oracle.sim.run()
    assert mine.observed() == oracle.observed()
    assert mine.sim.pending == 0
    assert all(c._backlog is None for c in mine.channels)


def test_a_burst_behind_one_head_takes_one_heap_slot():
    """Three thousand packets sent at one instant: the oracle's heap holds
    all of them, the backlog's only the head; they fire the same, through
    the backlog cutting off its delivered front on the way."""
    mine, oracle = Side(Network), Side(AllInHeapNetwork)
    for side in (mine, oracle):
        for index in range(3000):
            side.send(("a", "b"), index)
        assert side.sim.pending == 3000
    assert (mine.sim.heap_high_water, oracle.sim.heap_high_water) == (1, 3000)
    mine.sim.run()
    oracle.sim.run()
    assert mine.observed() == oracle.observed()
