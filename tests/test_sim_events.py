"""Unit tests for the discrete-event simulator kernel."""

import heapq
import random

import pytest

from repro.sim.events import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_executed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    assert sim.pending == 1
    executed = sim.run()
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_tie_break_is_scheduling_order():
    sim = Simulator()
    fired = []
    for name in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, 1)
    sim.run()
    assert fired == [1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: sim.schedule_at(7.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [7.0]


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert sim.run() == 0
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending == 0


def test_cancel_mid_run():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, fired.append, "later")
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert fired == []


def test_pending_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep is not None


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "exact")
    sim.run(until=5.0)
    assert fired == ["exact"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    assert sim.run(max_events=3) == 3
    assert fired == [0, 1, 2]


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 5.0


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_peek_time():
    sim = Simulator()
    assert sim.peek_time() is None
    sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek_time() == 2.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.pending == 1


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_clock_monotonicity_across_many_events():
    sim = Simulator()
    times = []
    import random

    rng = random.Random(0)
    for _ in range(200):
        sim.schedule(rng.uniform(0, 100), lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == 200


def test_repr_smoke():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert "pending" in repr(sim)
    assert "pending" in repr(handle)
    handle.cancel()
    assert "cancelled" in repr(handle)


# ---------------------------------------------------------------------------
# Ordering contract of the tuple-keyed heap
# ---------------------------------------------------------------------------


class _HandleOrderedSimulator:
    """The loop as it was while ``EventHandle.__lt__`` ordered the heap.

    Reference for the tests below: same schedule/cancel/step/run rules,
    handles compared through ``(time, seq)`` in Python.
    """

    class Handle:
        def __init__(self, time, seq, tag, sim):
            self.time, self.seq, self.tag, self.sim = time, seq, tag, sim
            self.cancelled = False

        def cancel(self):
            if not self.cancelled:
                self.cancelled = True
                if self.sim is not None:
                    self.sim._live -= 1

        def __lt__(self, other):
            return (self.time, self.seq) < (other.time, other.seq)

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._live = 0
        self.heap_high_water = 0
        self.fired = []

    def schedule(self, delay, tag):
        handle = self.Handle(self.now + delay, self._seq, tag, self)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        self._live += 1
        self.heap_high_water = max(self.heap_high_water, len(self._heap))
        return handle

    def schedule_at(self, time, tag):
        return self.schedule(time - self.now, tag)

    def _drop_cancelled(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def step(self):
        self._drop_cancelled()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self._live -= 1
        event.sim = None
        self.now = event.time
        self.fired.append((event.tag, self.now))
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            self._drop_cancelled()
            if not self._heap:
                break
            if until is not None and self._heap[0].time > until:
                self.now = until
                break
            self.step()
            executed += 1
        return executed

    @property
    def pending(self):
        return self._live


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_matches_handle_ordered_reference(seed):
    """schedule / schedule_at / cancel / step / run(until, max_events) in a
    random mix, many events at the same instant: firing order and times,
    ``pending`` and ``heap_high_water`` all equal the reference's."""
    rng = random.Random(seed)
    sim, ref = Simulator(), _HandleOrderedSimulator()
    fired = []
    handles = []
    for tag in range(400):
        op = rng.random()
        if op < 0.45:
            delay = rng.choice((0.0, 0.5, 0.5, 1.25, rng.random() * 3))
            handles.append(
                (
                    sim.schedule(delay, lambda t=tag: fired.append((t, sim.now))),
                    ref.schedule(delay, tag),
                )
            )
        elif op < 0.65:
            time = sim.now + rng.choice((0.0, 0.1, 0.7, 0.1 + 0.2))
            handles.append(
                (
                    sim.schedule_at(time, lambda t=tag: fired.append((t, sim.now))),
                    ref.schedule_at(time, tag),
                )
            )
        elif op < 0.80 and handles:
            mine, theirs = rng.choice(handles)
            mine.cancel()
            theirs.cancel()
        elif op < 0.90:
            assert sim.step() == ref.step()
        else:
            until = sim.now + rng.random() if rng.random() < 0.5 else None
            limit = rng.randrange(1, 6)
            assert sim.run(until=until, max_events=limit) == ref.run(until, limit)
        assert fired == ref.fired
        assert sim.now == ref.now
        assert sim.pending == ref.pending
        assert sim.heap_high_water == ref.heap_high_water
    assert sim.run() == ref.run()
    assert fired == ref.fired and sim.pending == ref.pending == 0


def test_same_instant_events_fire_in_schedule_order_across_entry_points():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule_at(1.0, fired.append, "b")
    dropped = sim.schedule(1.0, fired.append, "dropped")
    sim.schedule_at(1.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "d")
    dropped.cancel()
    assert sim.run(max_events=2) == 2
    assert fired == ["a", "b"]
    sim.schedule(0.0, fired.append, "e")  # same instant, scheduled last
    assert sim.run(until=1.0) == 3
    assert fired == ["a", "b", "c", "d", "e"]


def test_schedule_at_fires_at_now_plus_difference():
    """``schedule_at(t)`` fires at ``now + (t - now)``, which is not always
    ``t``: same-instant ties between channels depend on that rounding."""
    sim = Simulator()
    sim.schedule(2.605, lambda: None)
    sim.run()
    now, target = sim.now, 6.63
    assert now + (target - now) != target  # the case that tells them apart
    seen = []
    sim.schedule_at(target, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [now + (target - now)]


def test_cancelled_head_is_skipped_once():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, fired.append, "head")
    sim.schedule(2.0, fired.append, "next")
    head.cancel()
    assert sim.pending == 1
    assert sim.step() is True
    assert fired == ["next"] and sim.now == 2.0
    assert sim.events_executed == 1 and sim.pending == 0
    assert sim.peek_time() is None and sim.step() is False
    head.cancel()  # late, repeated cancels change nothing
    assert sim.pending == 0
