"""The live scheduler: one timer heap, one armed loop wake-up, direct dispatch.

Ordering properties are checked on a hand-cranked clock and a recording
loop (nothing fires until the test says so), the rest on a real event
loop through :class:`AsyncioTransport`.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.asyncio_backend import AsyncioScheduler, AsyncioTransport
from repro.runtime.node import Process
from repro.sim.network import Network

LIVE_TIME_SCALE = 1e-6


class ManualClock:
    """The shape of ``LiveClock`` with ``now`` set by the test.

    One real second per virtual millisecond, so every wait that is not
    already due is far beyond the polling threshold (``call_at``).
    """

    time_scale = 1.0

    def __init__(self):
        self.now = 0.0

    def to_real_seconds(self, virtual_ms):
        return virtual_ms * self.time_scale

    def real_deadline(self, virtual_ms):
        return virtual_ms * self.time_scale


class _Armed:
    def __init__(self, callback, when):
        self.callback = callback
        self.when = when  # None: call_soon
        self.cancelled = False
        self.ran = False

    def cancel(self):
        self.cancelled = True


class RecordingLoop:
    """Records every ``call_soon``/``call_at``; the test fires them."""

    def __init__(self):
        self._real = asyncio.new_event_loop()
        self.armed = []

    def create_future(self):
        return self._real.create_future()

    def call_soon(self, callback):
        self.armed.append(_Armed(callback, None))
        return self.armed[-1]

    def call_at(self, when, callback):
        self.armed.append(_Armed(callback, when))
        return self.armed[-1]

    def live(self):
        return [h for h in self.armed if not (h.cancelled or h.ran)]

    def fire(self):
        """Run the one live wake-up, as the event loop would."""
        (handle,) = self.live()
        handle.ran = True
        handle.callback()

    def close(self):
        self._real.close()


@pytest.fixture
def rig():
    loop, clock = RecordingLoop(), ManualClock()
    yield AsyncioScheduler(loop, clock), loop, clock
    loop.close()


# -- firing order against a sorted-list reference ------------------------------

OPS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from((0.0, 0.5, 0.5, 1.25, 3.0))),
    # absolute deadlines, some already in the past
    st.tuples(st.just("schedule_at"), st.sampled_from((-1.0, 0.0, 0.1, 0.7, 2.0))),
    # a timer whose callback cancels an earlier handle (maybe one due in
    # the same batch, maybe one that already fired)
    st.tuples(st.just("assassin"), st.integers(0, 40)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 0.5, 1.0, 4.0))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_random_programs_fire_in_deadline_seq_order(program):
    loop, clock = RecordingLoop(), ManualClock()
    scheduler = AsyncioScheduler(loop, clock)
    fired, handles = [], []
    # reference: seq -> [deadline, victim seq or None, state]
    ref, ref_fired = {}, []

    def ref_cancel(seq):
        if seq in ref and ref[seq][2] == "live":
            ref[seq][2] = "cancelled"

    def add(delay, absolute=False, victim=None):
        seq = len(handles)

        def callback():
            fired.append(seq)
            if victim is not None:
                handles[victim].cancel()

        if absolute:
            handles.append(scheduler.schedule_at(clock.now + delay, callback))
        else:
            handles.append(scheduler.schedule(delay, callback))
        ref[seq] = [clock.now + delay, victim, "live"]

    def wake_up():
        # Everything due at this clock reading, in (deadline, seq) order.
        due = sorted((d, s) for s, (d, _, _) in ref.items() if d <= clock.now)
        for _, seq in due:
            if ref[seq][2] == "live":
                ref[seq][2] = "fired"
                ref_fired.append(seq)
                if ref[seq][1] is not None:
                    ref_cancel(ref[seq][1])
        if loop.live():
            loop.fire()

    try:
        for op, arg in program:
            if op == "schedule":
                add(arg)
            elif op == "schedule_at":
                add(arg, absolute=True)
            elif op == "assassin" and handles:
                add(0.5, victim=arg % len(handles))
            elif op == "cancel" and handles:
                handles[arg % len(handles)].cancel()
                ref_cancel(arg % len(handles))
            elif op == "advance":
                clock.now += arg
                wake_up()
            live = sum(1 for entry in ref.values() if entry[2] == "live")
            assert fired == ref_fired
            assert scheduler.pending == live
            # One armed wake-up while anything is pending, never two (a
            # cancelled head keeps its wake-up: deletion is lazy).
            assert len(loop.live()) <= 1
            assert loop.live() or not live
        clock.now += 100.0
        wake_up()
        assert fired == ref_fired
        assert scheduler.pending == 0 and loop.live() == []
        for handle in handles:  # cancel after firing: no double decrement
            handle.cancel()
        assert scheduler.pending == 0
    finally:
        loop.close()


def test_idle_future_resolves_exactly_when_the_last_timer_retires(rig):
    scheduler, loop, clock = rig
    first = scheduler.schedule(1.0, lambda: None)
    second = scheduler.schedule(2.0, lambda: None)
    idle = scheduler.wakeup()
    clock.now = 1.0
    loop.fire()
    assert scheduler.pending == 1 and not idle.done()
    second.cancel()
    assert scheduler.pending == 0 and idle.done()
    first.cancel()  # already fired
    assert scheduler.pending == 0


# -- one armed loop timer --------------------------------------------------------


def test_one_arm_per_batch_not_one_per_event(rig):
    scheduler, loop, clock = rig
    for index in range(1000):
        scheduler.schedule(1.0 + index * 0.001, lambda: None)
    assert len(loop.armed) == 1  # later-than-head pushes never re-arm
    scheduler.schedule(0.5, lambda: None)
    assert len(loop.armed) == 2 and len(loop.live()) == 1  # earlier than the head
    batches = 0
    while loop.live():
        clock.now += 0.25
        loop.fire()
        batches += 1
        assert len(loop.live()) <= 1
    assert scheduler.events_executed == 1001
    assert len(loop.armed) <= 2 + batches


def test_sub_millisecond_head_is_polled_not_slept_on(rig):
    scheduler, loop, clock = rig
    clock.time_scale = 1e-5  # 1 virtual ms = 10 us real
    scheduler.schedule(50.0, lambda: None)  # 0.5 ms real: poll
    assert loop.live()[0].when is None
    scheduler.schedule(0.0, lambda: None)  # polling already: no re-arm
    assert len(loop.armed) == 1
    clock.now = 60.0
    loop.fire()
    scheduler.schedule(500.0, lambda: None)  # 5 ms real: sleep
    assert loop.live()[0].when == pytest.approx(clock.real_deadline(560.0))
    assert len(loop.live()) == 1


def test_batch_does_not_fire_what_it_scheduled_even_on_a_frozen_clock(rig):
    scheduler, loop, clock = rig
    ticks = []

    def tick():
        ticks.append(len(ticks))
        if len(ticks) < 5:
            scheduler.schedule(0.0, tick)  # due at once: the clock stands still

    scheduler.schedule(0.0, tick)
    for expected in range(1, 6):
        loop.fire()  # one wake-up, one tick: the loop gets a turn in between
        assert len(ticks) == expected
    assert scheduler.pending == 0 and loop.live() == []


def test_a_due_backlog_fires_in_its_heads_batch(rig):
    """Packets sent behind a channel's head hold no heap entry, count as
    live, and fire in the head's wake-up when they are due by then: their
    seqs were taken at send time, below the batch's fence."""
    scheduler, loop, clock = rig
    network = Network(scheduler)
    network.add_process(Recorder(scheduler, "a"))
    sink = network.add_process(Recorder(scheduler, "b"))
    channel = network.connect("a", "b", 1.0)
    for index in range(3):
        channel.send(index)
    assert scheduler.pending == 3 and len(scheduler._heap) == 1
    clock.now = 5.0
    loop.fire()
    assert sink.got == [0, 1, 2] and scheduler.events_executed == 3
    assert scheduler.pending == 0 and loop.live() == []
    assert channel._backlog is None


def test_close_cancels_the_armed_timer_and_nothing_arms_after(rig):
    scheduler, loop, clock = rig
    scheduler.schedule(5.0, lambda: None)
    assert len(loop.live()) == 1
    scheduler.close()
    assert loop.live() == []
    scheduler.schedule(0.0, lambda: None)
    assert loop.live() == []


# -- on a real event loop ----------------------------------------------------------


class Recorder(Process):
    def __init__(self, node, name):
        super().__init__(node, name)
        self.got = []

    def receive(self, payload, channel):
        self.got.append(payload)


def test_crossing_channels_stay_fifo_under_ties():
    """1 000 same-instant sends and 1 000 near-ties on two crossing
    channels: each side receives exactly its sender's order."""
    backend = AsyncioTransport(time_scale=LIVE_TIME_SCALE)
    try:
        network, scheduler = backend.transport, backend.scheduler
        left = network.add_process(Recorder(scheduler, "left"))
        right = network.add_process(Recorder(scheduler, "right"))
        to_right = network.connect("left", "right", 0.5)
        to_left = network.connect("right", "left", 0.5)

        def same_instant():
            for index in range(1000):
                to_right.send(("tie", index))
                to_left.send(("tie", index))

        scheduler.schedule(0.0, same_instant)
        for index in range(1000):  # 1 ns of real time apart
            scheduler.schedule(1.0 + index * 0.001, to_right.send, ("near", index))
            scheduler.schedule(1.0 + index * 0.001, to_left.send, ("near", index))
        backend.run()
        expected = [("tie", i) for i in range(1000)] + [("near", i) for i in range(1000)]
        assert right.got == expected
        assert left.got == expected
        assert to_right.in_flight == to_left.in_flight == 0
    finally:
        backend.close()


def test_zero_delay_chain_never_starves_the_loop():
    async def scenario():
        backend = AsyncioTransport(time_scale=LIVE_TIME_SCALE)
        loop = asyncio.get_running_loop()
        log = []

        def tick():
            log.append("tick")
            if log.count("tick") < 200:
                backend.scheduler.schedule(0.0, tick)

        def other():
            log.append("other")
            if backend.scheduler.pending:
                loop.call_soon(other)

        backend.scheduler.schedule(0.0, tick)
        loop.call_soon(other)
        await backend.wait_quiescent()
        backend.close()
        return log

    log = asyncio.run(scenario())
    assert log.count("tick") == 200
    # every wake-up fires one tick, and the other callback runs in between
    assert "tick tick" not in " ".join(log)


def test_raising_callback_surfaces_and_later_events_still_fire():
    backend = AsyncioTransport(time_scale=LIVE_TIME_SCALE)
    fired = []

    def boom():
        raise RuntimeError("boom")

    try:
        backend.scheduler.schedule(1.0, boom)
        backend.scheduler.schedule(1.0, fired.append, "same batch")
        backend.scheduler.schedule(5000.0, fired.append, "later")
        with pytest.raises(RuntimeError, match="boom"):
            backend.run()
        assert "same batch" in fired
        backend.run()
        assert fired == ["same batch", "later"]
        assert backend.scheduler.pending == 0
    finally:
        backend.close()


def test_raising_callback_surfaces_from_hosted_wait_quiescent():
    async def scenario():
        backend = AsyncioTransport(time_scale=LIVE_TIME_SCALE)

        def boom():
            raise ValueError("hosted boom")

        backend.scheduler.schedule(1.0, boom)
        try:
            with pytest.raises(ValueError, match="hosted boom"):
                await backend.wait_quiescent(timeout=5.0)
        finally:
            backend.close()

    asyncio.run(scenario())


def test_at_most_one_loop_handle_on_a_real_loop():
    """Wrap the loop's ``call_soon``/``call_at`` and count what the
    scheduler asks of it during a live run."""
    backend = AsyncioTransport(time_scale=LIVE_TIME_SCALE)
    loop, scheduler = backend._loop, backend.scheduler
    arms = []
    real_soon, real_at = loop.call_soon, loop.call_at

    def live():
        return sum(1 for arm in arms if not (arm["ran"] or arm["handle"].cancelled()))

    def recording(real):
        def call(*args, **kwargs):
            *head, callback = args
            if callback != scheduler._run_due:
                return real(*args, **kwargs)
            arm = {"ran": False}

            def wake_up():
                arm["ran"] = True
                callback()

            arm["handle"] = real(*head, wake_up, **kwargs)
            arms.append(arm)
            assert live() <= 1
            return arm["handle"]

        return call

    loop.call_soon, loop.call_at = recording(real_soon), recording(real_at)
    try:
        for index in range(2000):
            scheduler.schedule(1.0 + index * 0.01, lambda: None)
        backend.run()
        assert scheduler.events_executed == 2000
        batches = sum(1 for arm in arms if arm["ran"])
        # one arm per batch (+ the first push), not one per event
        assert len(arms) <= batches + 1 < 2000
        assert live() == 0
    finally:
        loop.call_soon, loop.call_at = real_soon, real_at
        backend.close()


def test_hosted_epoch_switch_leaves_no_armed_timer_on_the_closed_backend():
    from repro.runtime.service import OrderingService

    async def scenario():
        service = OrderingService(n_hosts=4, seed=0, time_scale=LIVE_TIME_SCALE)
        try:
            for host, topic in ((0, "a"), (1, "a"), (1, "b"), (2, "b")):
                await service.handle({"op": "subscribe", "host": host, "topic": topic})
            assert (await service.handle({"op": "publish", "sender": 0, "topic": "a"}))["ok"]
            old = service.bus.fabric.runtime
            # A membership change: the next publish drains and switches epochs.
            await service.handle({"op": "subscribe", "host": 3, "topic": "b"})
            assert (await service.handle({"op": "publish", "sender": 3, "topic": "b"}))["ok"]
            new = service.bus.fabric.runtime
            assert new is not old and new._loop is old._loop
            assert old.scheduler._armed is None
            old.scheduler.schedule(0.0, lambda: None)  # a straggler cannot re-arm it
            assert old.scheduler._armed is None
            await service.handle({"op": "drain"})
            assert new.scheduler.pending == 0 and new.scheduler._armed is None
        finally:
            service.bus.close()

    asyncio.run(scenario())
