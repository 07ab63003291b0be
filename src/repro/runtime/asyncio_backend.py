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
  ``heap_high_water`` / ``profiler`` exactly like
  :class:`~repro.sim.events.Simulator`, and :class:`AsyncioChannel` /
  :class:`AsyncioNetwork` mirror :class:`~repro.sim.network.Channel` /
  :class:`~repro.sim.network.Network` counter-for-counter, so the
  protocol core, the metrics hooks, and the failover machinery run
  unmodified.

* **One heap, one armed loop timer, direct dispatch.**  The scheduler
  keeps its own ``(deadline, seq, handle)`` heap (the
  :mod:`repro.sim.events` layout, lazy deletion of cancelled handles) and
  asks the event loop for one wake-up, for the heap's head.  A wake-up
  reads the clock once and fires everything due at that reading — an
  arriving packet goes straight to its destination's ``receive``; events
  the batch itself schedules wait for the next wake-up, so socket I/O
  gets a turn between batches.  A head due in less than
  :data:`SELECT_GRANULARITY` is polled (``call_soon``), not slept on.

* **FIFO is structural: it is heap order.**  A channel's arrival times
  never decrease (``max(now + delay, last arrival)``) and ``seq`` grows
  with every push, so two packets of one channel leave the heap in send
  order whatever the wall clock does — the FIFO channel assumption the
  sequencing proof depends on (paper §3.1) needs no per-channel queue.

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
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple,
)

from repro.runtime.errors import RuntimeUnavailable, SimulationError
from repro.runtime.wallclock import LiveClock, read_wall_clock

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.profiler import PhaseProfiler
    from repro.runtime.node import Process
    from repro.runtime.trace import Trace

__all__ = ["AsyncioChannel", "AsyncioNetwork", "AsyncioScheduler", "AsyncioTransport"]

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
        #: optional phase profiler (see :mod:`repro.obs.profiler`)
        self.profiler: Optional["PhaseProfiler"] = None
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
                    profiler = self.profiler
                    if profiler is not None and profiler.enabled:
                        profiler.dispatch_begin(handle.callback)
                        handle.callback(*handle.args)
                        profiler.dispatch_end(self.now)
                    else:
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


class AsyncioChannel:
    """A unidirectional FIFO link over the live scheduler's heap.

    Mirrors :class:`~repro.sim.network.Channel`: constant propagation
    delay, Bernoulli loss injection, outage windows, and the same counter
    set.  An arrival calls the destination process's ``receive``
    directly, from the scheduler's batch.
    """

    def __init__(
        self,
        network: "AsyncioNetwork",
        src: "Process",
        dst: "Process",
        delay: float,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if delay < 0:
            raise ValueError(f"channel delay must be non-negative, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0 and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self._scheduler = network.scheduler
        self.src = src
        self.dst = dst
        self.delay = delay
        self.loss_rate = loss_rate
        self._rng = rng
        self._last_delivery_time = 0.0
        self._down_until = 0.0
        self.sends = 0
        self.loss_drops = 0
        self.outage_drops = 0
        self.bytes_sent = 0
        self.receives = 0
        self.in_flight = 0
        self.in_flight_high_water = 0
        #: bound once, not per send (see sim.network.Channel)
        self._on_arrival = self._arrive

    @property
    def drops(self) -> int:
        """Total packets dropped, whatever the cause."""
        return self.loss_drops + self.outage_drops

    def fail(self, duration: float) -> None:
        """Take the link down for ``duration`` virtual milliseconds."""
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        self._down_until = max(self._down_until, self._scheduler.now + duration)

    @property
    def is_down(self) -> bool:
        """Whether the link is currently in an outage window."""
        return self._scheduler.now < self._down_until

    def send(self, payload: Any, size_bytes: int = 0) -> bool:
        """Transmit ``payload``; returns ``False`` if dropped."""
        self.sends += 1
        self.src.messages_sent += 1
        self.bytes_sent += size_bytes
        scheduler = self._scheduler
        now = scheduler.now
        if now < self._down_until:
            self.outage_drops += 1
            return False
        if self.loss_rate > 0:
            assert self._rng is not None  # enforced by the constructor
            if self._rng.random() < self.loss_rate:
                self.loss_drops += 1
                return False
        # FIFO: arrivals never decrease, and the heap breaks ties by
        # push order.
        arrival = now + self.delay
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        scheduler.schedule_at(arrival, self._on_arrival, payload)
        self.in_flight += 1
        if self.in_flight > self.in_flight_high_water:
            self.in_flight_high_water = self.in_flight
        return True

    def _arrive(self, payload: Any) -> None:
        self.in_flight -= 1
        self.receives += 1
        self.dst.messages_received += 1
        self.dst.receive(payload, self)

    def __repr__(self) -> str:
        return (
            f"<AsyncioChannel {self.src.name!r}->{self.dst.name!r} "
            f"delay={self.delay:.3f} sends={self.sends}>"
        )


class AsyncioNetwork:
    """Process registry + live channels.

    API-compatible with :class:`~repro.sim.network.Network` (lazy connect,
    partition cuts with inheritance, channel retirement with carried
    counters, ``total_*`` aggregates) so the fabric and the observability
    hooks work unchanged.
    """

    _CARRIED_STATS = (
        "sends",
        "loss_drops",
        "outage_drops",
        "bytes_sent",
        "receives",
    )

    def __init__(
        self,
        scheduler: AsyncioScheduler,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        self.scheduler = scheduler
        self.loss_rate = loss_rate
        self.rng = rng
        self._processes: Dict[Any, "Process"] = {}
        self._channels: Dict[Tuple[Any, Any], AsyncioChannel] = {}
        self._cuts: List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]] = []
        self._retired_totals: Dict[str, int] = {k: 0 for k in self._CARRIED_STATS}
        self.channels_retired = 0
        #: edges retired by failover and not since re-created (GV206)
        self._retired_keys: Set[Tuple[Any, Any]] = set()

    # -- registry ----------------------------------------------------------

    def add_process(self, process: "Process") -> "Process":
        """Register a process; names must be unique."""
        if process.name in self._processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process
        return process

    def process(self, name: Any) -> "Process":
        """Look up a registered process by name."""
        return self._processes[name]

    def __contains__(self, name: Any) -> bool:
        return name in self._processes

    # -- channels ----------------------------------------------------------

    def connect(self, src_name: Any, dst_name: Any, delay: float) -> AsyncioChannel:
        """Create (or fetch) the unidirectional channel ``src -> dst``."""
        key = (src_name, dst_name)
        existing = self._channels.get(key)
        if existing is not None:
            if existing.delay != delay:
                raise ValueError(
                    f"channel {key} already exists with delay "
                    f"{existing.delay}, refusing {delay}"
                )
            return existing
        channel = AsyncioChannel(
            self,
            self._processes[src_name],
            self._processes[dst_name],
            delay,
            loss_rate=self.loss_rate,
            rng=self.rng,
        )
        self._channels[key] = channel
        # A re-created edge (post-failover reconnect) is live again.
        self._retired_keys.discard(key)
        # A channel created while a partition cut is active inherits the
        # remaining outage window (matches the simulated network).
        for heal_time, side_a, side_b in self._active_cuts():
            if _crosses_cut(src_name, dst_name, side_a, side_b):
                remaining = heal_time - self.scheduler.now
                if remaining > 0:
                    channel.fail(remaining)
        return channel

    def channel(self, src_name: Any, dst_name: Any) -> AsyncioChannel:
        """Fetch an existing channel; raises ``KeyError`` if absent."""
        return self._channels[(src_name, dst_name)]

    @property
    def channels(self) -> Dict[Tuple[Any, Any], AsyncioChannel]:
        """Read-only view of all live channels (for metrics)."""
        return dict(self._channels)

    # -- fault injection ---------------------------------------------------

    def _active_cuts(
        self,
    ) -> List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]]:
        self._cuts = [cut for cut in self._cuts if cut[0] > self.scheduler.now]
        return self._cuts

    def partition(
        self,
        side: FrozenSet[Any],
        duration: float,
        side_b: Optional[FrozenSet[Any]] = None,
    ) -> int:
        """Cut ``side`` off from ``side_b`` (default: everything else)."""
        if duration <= 0:
            raise ValueError(f"partition duration must be positive, got {duration}")
        side = frozenset(side)
        other = frozenset(side_b) if side_b is not None else None
        self._cuts.append((self.scheduler.now + duration, side, other))
        failed = 0
        for (src_name, dst_name), channel in self._channels.items():
            if _crosses_cut(src_name, dst_name, side, other):
                channel.fail(duration)
                failed += 1
        return failed

    def retire_channels(self, name: Any) -> int:
        """Remove every channel touching process ``name`` (failover).

        Counters fold into the retired totals (aggregates stay
        monotonic); packets already on a retired channel's wire still
        deliver, exactly like the simulated network.
        """
        retired = [
            key for key in self._channels if key[0] == name or key[1] == name
        ]
        for key in retired:
            channel = self._channels.pop(key)
            for stat in self._CARRIED_STATS:
                self._retired_totals[stat] += getattr(channel, stat)
        self.channels_retired += len(retired)
        self._retired_keys.update(retired)
        return len(retired)

    @property
    def retired_edges(self) -> Set[Tuple[Any, Any]]:
        """Edges retired by failover and not re-created since."""
        return set(self._retired_keys)

    # -- aggregates --------------------------------------------------------

    def total_bytes_sent(self) -> int:
        """Aggregate wire bytes across all channels (including retired)."""
        return (
            sum(c.bytes_sent for c in self._channels.values())
            + self._retired_totals["bytes_sent"]
        )

    def total_sends(self) -> int:
        """Aggregate packet transmissions across all channels."""
        return (
            sum(c.sends for c in self._channels.values())
            + self._retired_totals["sends"]
        )

    def total_drops(self) -> int:
        """Aggregate packets lost to loss injection or outages."""
        return self.total_loss_drops() + self.total_outage_drops()

    def total_loss_drops(self) -> int:
        """Aggregate packets lost to Bernoulli loss injection."""
        return (
            sum(c.loss_drops for c in self._channels.values())
            + self._retired_totals["loss_drops"]
        )

    def total_outage_drops(self) -> int:
        """Aggregate packets lost to link outages / partitions."""
        return (
            sum(c.outage_drops for c in self._channels.values())
            + self._retired_totals["outage_drops"]
        )

    def total_in_flight(self) -> int:
        """Packets currently propagating across all channels."""
        return sum(c.in_flight for c in self._channels.values())


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
        self.transport = AsyncioNetwork(
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


def _crosses_cut(
    src_name: Any,
    dst_name: Any,
    side: FrozenSet[Any],
    side_b: Optional[FrozenSet[Any]],
) -> bool:
    """Whether the directed channel ``src -> dst`` crosses the cut."""
    if side_b is None:
        return (src_name in side) != (dst_name in side)
    return (src_name in side and dst_name in side_b) or (
        src_name in side_b and dst_name in side
    )
