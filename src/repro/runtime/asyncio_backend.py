"""The live asyncio runtime backend.

:class:`AsyncioTransport` runs the *same* protocol core as the simulator,
but for real: on an event loop, against scaled monotonic wall time
(:class:`~repro.runtime.wallclock.LiveClock`).  The TCP service façade on
top of this backend lives in :mod:`repro.runtime.service`.

Design notes
------------

* **Same observable surface as the simulator.**
  :class:`AsyncioScheduler` exposes ``now`` / ``schedule`` /
  ``schedule_at`` / ``pending`` / ``events_executed`` /
  ``heap_high_water`` exactly like
  :class:`~repro.sim.events.Simulator`.  The network is the one
  :class:`~repro.sim.network.Network`, built over this scheduler: a
  surviving packet goes on the scheduler's heap, or behind the one its
  channel has in flight, so the protocol core, the metrics hooks, and the
  failover machinery run unmodified.

* **One heap, one armed loop timer, direct dispatch.**  The scheduler
  keeps its own ``(deadline, seq, handle)`` heap (the
  :mod:`repro.sim.events` layout, lazy deletion of cancelled handles) and
  asks the event loop for one wake-up, for the heap's head.  A wake-up
  reads the clock once and fires everything due at that reading — an
  arriving packet goes straight to its destination's ``receive``; events
  the batch itself schedules wait for the next wake-up, so socket I/O
  gets a turn between batches.  A head due in less than
  :data:`SELECT_GRANULARITY` is polled (``call_soon``), not slept on.

* **FIFO is heap order, plus the channel's backlog.**  A channel's
  arrival times never decrease (``max(now + delay, last arrival)``) and
  are its deadlines; ``seq`` is handed out at send time.  Only a channel's
  head packet is on the heap: one sent behind it takes its key now
  (:meth:`AsyncioScheduler.reserve`) and waits in the channel's backlog
  until the head fires, which pushes it under that key
  (:meth:`AsyncioScheduler.push_reserved`).  Its ``seq`` is older than
  the firing batch's fence, so a due successor still fires in the same
  batch, as it did when every packet sat on the heap.  Two packets of
  one channel leave in send order whatever the wall clock does — the
  FIFO channel assumption the sequencing proof depends on (paper §3.1).

* **Documented divergences from the simulator.**  ``schedule_at``
  accepts a deadline the clock has already passed (the live clock
  advances between computing an arrival time and scheduling it; it is
  due at the next wake-up); ``run(until=...)`` returns with later timers
  still pending, but wall time keeps advancing between calls;
  ``max_events`` is a soft bound checked between poll intervals.
"""

import asyncio
import random
from heapq import heappop, heappush
from math import inf
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.runtime.errors import RuntimeUnavailable, SimulationError
from repro.runtime.wallclock import LiveClock, read_wall_clock
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.runtime.trace import Trace

__all__ = ["AsyncioScheduler", "AsyncioTransport"]

#: default ceiling on real seconds one ``run()`` call may consume before
#: raising — a safety net so a live-runtime bug cannot hang CI forever
DEFAULT_RUN_WALL_LIMIT = 60.0

#: real seconds below which the heap's head is polled instead of slept
#: on: ``selectors`` rounds every timeout *up* to a whole millisecond.
#: The loop spins while such a timer is pending (never when idle); see
#: docs/RUNTIME.md "Choosing ``time_scale``".
SELECT_GRANULARITY = 0.001


class _TimerHandle:
    """A cancellable reference to a scheduled live timer."""

    __slots__ = ("callback", "args", "_scheduler")

    def __init__(
        self, scheduler: "AsyncioScheduler", callback: Callable[..., None], args: Any
    ) -> None:
        self.callback = callback
        self.args = args
        #: cleared when the timer fires or is cancelled, so a late
        #: ``cancel()`` cannot decrement the live count twice
        self._scheduler: Optional["AsyncioScheduler"] = scheduler

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        scheduler = self._scheduler
        if scheduler is not None:
            self._scheduler = None
            scheduler._live -= 1
            if scheduler._live == 0:
                scheduler._wake()


class AsyncioScheduler:
    """Timer heap over an asyncio event loop with a scaled live clock.

    The unit of ``now`` and of every delay is the project's virtual
    millisecond; ``clock.time_scale`` maps it to real seconds (see
    :class:`~repro.runtime.wallclock.LiveClock`).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, clock: LiveClock):
        self._loop = loop
        self.clock = clock
        self._heap: List[Tuple[float, int, _TimerHandle]] = []
        self._seq = 0
        self.events_executed = 0
        #: live (not-yet-fired, not-cancelled) timers
        self._live = 0
        #: peak concurrent live timers (the live analogue of heap depth)
        self.heap_high_water = 0
        #: the one loop wake-up, armed for the heap's head, and the
        #: virtual deadline it was armed for: -inf while polling or while
        #: a batch fires (no push re-arms then; the batch's end does)
        self._armed: Optional[asyncio.Handle] = None
        self._armed_for = 0.0
        self._closed = False
        #: resolved when the live count reaches zero or a callback raises
        self._waiter: "asyncio.Future[None]" = loop.create_future()
        #: raised inside callbacks; the transport's drain re-raises the first
        self._errors: List[BaseException] = []

    #: virtual milliseconds since the backend was created; one Python
    #: frame (the getter is a C ``attrgetter`` over the clock's property)
    now = property(attrgetter("clock.now"))

    @property
    def pending(self) -> int:
        """Live (not-yet-fired, not-cancelled) timers."""
        return self._live

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> _TimerHandle:
        """Run ``callback(*args)`` ``delay`` virtual milliseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        return self._push(self.clock.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> _TimerHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time`` (at the
        next wake-up when the live clock has already passed it)."""
        return self._push(time, callback, args)

    def _push(self, deadline: float, callback: Callable[..., None], args: Any) -> _TimerHandle:
        handle = _TimerHandle(self, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (deadline, seq, handle))
        self._live += 1
        if self._live > self.heap_high_water:
            self.heap_high_water = self._live
        if self._armed is None or deadline < self._armed_for:
            self._arm()
        return handle

    def reserve(self, time: float) -> Tuple[float, int]:
        """Fix the ``(deadline, seq)`` key ``schedule_at(time)`` would use
        now, and count the timer live, without queuing it."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if self._live > self.heap_high_water:
            self.heap_high_water = self._live
        return time, seq

    def push_reserved(
        self, deadline: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Queue a reserved timer under its key.  No clamp: a channel's
        deadlines are its arrival times, which never decrease."""
        heappush(self._heap, (deadline, seq, _TimerHandle(self, callback, args)))
        if self._armed is None or deadline < self._armed_for:
            self._arm()

    def _arm(self) -> None:
        """Point the one loop wake-up at the heap's head (none once closed)."""
        if self._armed is not None:
            self._armed.cancel()
            self._armed = None
        heap = self._heap
        while heap and heap[0][2]._scheduler is None:
            heappop(heap)  # cancelled: never wake for it
        if not heap or self._closed:
            return
        deadline = heap[0][0]
        clock = self.clock
        if (deadline - clock.now) * clock.time_scale < SELECT_GRANULARITY:
            self._armed_for = -inf
            self._armed = self._loop.call_soon(self._run_due)
        else:
            self._armed_for = deadline
            when = clock.real_deadline(deadline)
            self._armed = self._loop.call_at(when, self._run_due)

    def _run_due(self) -> None:
        """Fire, in ``(deadline, seq)`` order, everything due at one clock read."""
        self._armed_for = -inf  # self._armed stays set: no re-arm
        heap = self._heap
        now = self.clock.now
        # Events this batch schedules have seq >= fence and wait for the
        # next wake-up, however stale their deadline.
        fence = self._seq
        try:
            while heap:
                deadline, seq, handle = heap[0]
                if deadline > now or seq >= fence:
                    break
                heappop(heap)
                if handle._scheduler is None:  # cancelled (lazy deletion)
                    continue
                handle._scheduler = None
                self._live -= 1
                self.events_executed += 1
                try:
                    handle.callback(*handle.args)
                except Exception as exc:  # noqa: BLE001 - surfaced at drain
                    self._errors.append(exc)
        finally:
            self._arm()
        if self._live == 0 or self._errors:
            self._wake()

    def wakeup(self) -> "asyncio.Future[None]":
        """Future resolved when the live count next hits zero or a callback
        raises; shared, so a waiter re-checks its condition after waking."""
        if self._waiter.done():
            self._waiter = self._loop.create_future()
        return self._waiter

    def _wake(self) -> None:
        if not self._waiter.done():
            self._waiter.set_result(None)

    def close(self) -> None:
        """Cancel the armed wake-up; nothing fires or arms afterwards."""
        self._closed = True
        self._arm()

    def __repr__(self) -> str:
        return f"<AsyncioScheduler now={self.now:.3f} pending={self.pending}>"


class AsyncioTransport:
    """Live runtime backend: one timer heap on an event loop, real clock.

    Parameters
    ----------
    seed:
        Seed for the transport-level RNG (channel loss draws); derived as
        ``seed + 1``, matching the simulated backend.
    loss_rate:
        Per-packet Bernoulli loss probability applied by every channel.
    time_scale:
        Real seconds per virtual millisecond (see
        :class:`~repro.runtime.wallclock.LiveClock`).  The default runs
        virtual milliseconds as real milliseconds; tests and examples use
        much smaller values to run live scenarios quickly.
    loop:
        Event loop to schedule on.  ``None`` adopts the currently running
        loop when there is one (*hosted* mode — drive with
        :meth:`wait_quiescent`), otherwise creates and owns a private
        loop that :meth:`run` drives and :meth:`close` closes.
    max_run_wall_seconds:
        Safety ceiling on real seconds a single :meth:`run` /
        :meth:`wait_quiescent` may consume before raising
        :class:`~repro.runtime.errors.SimulationError`.
    """

    backend_name = "asyncio"

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        time_scale: float = 0.001,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        max_run_wall_seconds: float = DEFAULT_RUN_WALL_LIMIT,
    ):
        self.seed = seed
        self.loss_rate = loss_rate
        self.time_scale = time_scale
        self.max_run_wall_seconds = max_run_wall_seconds
        self._owned = False
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = asyncio.new_event_loop()
                self._owned = True
        self._loop = loop
        self.clock = LiveClock(time_scale=time_scale)
        self.scheduler = AsyncioScheduler(loop, self.clock)
        self.transport = Network(
            self.scheduler, loss_rate=loss_rate, rng=random.Random(seed + 1)
        )
        self._trace: Optional["Trace"] = None

    # -- driving -----------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drive the owned event loop until quiescent (or the horizon).

        Blocking entry point for synchronous callers (the fabric's
        ``run``, the conformance tests).  Hosted backends must use
        ``await wait_quiescent(...)`` instead — the loop is already
        running and cannot be re-entered.
        """
        if self._loop.is_running():
            raise RuntimeUnavailable(
                "this AsyncioTransport is hosted on a running event loop; "
                "use 'await backend.wait_quiescent()' instead of run()"
            )
        before = self.scheduler.events_executed
        self._loop.run_until_complete(
            self.wait_quiescent(until=until, max_events=max_events)
        )
        return self.scheduler.events_executed - before

    async def wait_quiescent(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Await quiescence (no live timers) or the horizon.

        ``until`` is a virtual-time horizon like the simulator's;
        ``max_events`` is a *soft* bound checked between polls;
        ``timeout`` overrides the backend's wall-clock safety ceiling
        (real seconds).  Returns callbacks executed during the wait.
        """
        scheduler = self.scheduler
        before = scheduler.events_executed
        limit = timeout if timeout is not None else self.max_run_wall_seconds
        started = read_wall_clock()
        # A horizon or an event budget is polled, finely enough to notice
        # it quickly at any scale; plain quiescence is awaited.
        poll = min(max(self.clock.time_scale, 0.0005), 0.02)
        while True:
            self._raise_pending_errors()
            if until is not None and self.clock.now >= until:
                break
            if max_events is not None and (
                scheduler.events_executed - before >= max_events
            ):
                break
            if until is None and scheduler.pending == 0:
                break
            elapsed = read_wall_clock() - started
            if elapsed > limit:
                raise SimulationError(
                    f"live runtime did not reach "
                    f"{'quiescence' if until is None else f'until={until}'} "
                    f"within {limit:.1f}s wall "
                    f"(pending={scheduler.pending}, now={self.clock.now:.1f})"
                )
            if until is None and max_events is None:
                await asyncio.wait([scheduler.wakeup()], timeout=limit - elapsed)
            else:
                await asyncio.sleep(poll)
        return scheduler.events_executed - before

    def _raise_pending_errors(self) -> None:
        if self.scheduler._errors:
            exc = self.scheduler._errors[0]
            if self._trace is not None:
                self._trace.record(
                    self.clock.now, "runtime_error", error=repr(exc)
                )
            self.scheduler._errors = []
            raise exc

    # -- lifecycle ---------------------------------------------------------

    def successor(self, seed: int, loss_rate: float) -> "AsyncioTransport":
        """Fresh backend for the next fabric epoch.

        A hosted backend's successor shares the running loop; an owned
        backend's successor owns a fresh loop (the old one is released by
        ``close()``).
        """
        return AsyncioTransport(
            seed=seed,
            loss_rate=loss_rate,
            time_scale=self.time_scale,
            loop=None if self._owned else self._loop,
            max_run_wall_seconds=self.max_run_wall_seconds,
        )

    def close(self) -> None:
        """Cancel the armed timer and close the owned event loop.  Idempotent."""
        self.scheduler.close()
        if self._owned and not self._loop.is_running():
            self._loop.close()

    def attach_trace(self, trace: "Trace") -> None:
        """Record backend-level events (callback errors) into the fabric trace."""
        self._trace = trace

    def __repr__(self) -> str:
        mode = "owned" if self._owned else "hosted"
        return (
            f"<AsyncioTransport {mode} now={self.clock.now:.1f} "
            f"pending={self.scheduler.pending}>"
        )

