"""Deterministic heap-based discrete-event loop.

The simulator executes callbacks at scheduled virtual times.  Two events
scheduled for the same time fire in the order they were scheduled (stable
tie-breaking by a monotonically increasing sequence number), which keeps
simulations reproducible across runs and platforms.  The heap holds
``(time, seq, handle)`` tuples: ``seq`` is unique, so the tuple comparison
is decided on the first two fields, in C, and never reaches the handle.

Observability: the loop maintains a live count of pending events (O(1),
updated on push/pop/cancel), a queue-depth high-water mark, and — when
``profile_every`` is set — wall-clock timing of every Nth callback via
``time.perf_counter``.  All are cheap enough to leave on; the profiler
costs two clock reads per *sampled* event only.
"""

import heapq
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

# SimulationError moved to the transport-neutral runtime layer; this
# re-export keeps the historical ``from repro.sim.events import
# SimulationError`` import path working (deprecated alias).
from repro.runtime.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids obs coupling
    from repro.obs.profiler import PhaseProfiler

__all__ = ["EventHandle", "SimulationError", "Simulator"]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Handles are returned by :meth:`Simulator.schedule`.  Cancelling a handle
    marks the event dead; the simulator skips dead events when they surface
    at the top of the heap (lazy deletion).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {name} {state}>"


class Simulator:
    """A discrete-event simulator with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, node.receive, message)
        sim.run()

    The clock unit is milliseconds by convention throughout this project
    (link delays produced by :mod:`repro.topology` are in milliseconds),
    but the kernel itself is unit-agnostic.

    Parameters
    ----------
    profile_every:
        When positive, every Nth executed event's callback is timed with
        ``perf_counter`` and accumulated into ``callback_wall_time`` /
        ``callbacks_sampled`` — a cheap sampling profiler for finding
        real-time hot spots without timing every event.
    """

    def __init__(self, profile_every: int = 0) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._running: bool = False
        self.events_executed: int = 0
        #: live (non-cancelled) events in the queue, maintained in O(1)
        self._live: int = 0
        #: peak heap depth, including not-yet-collected cancelled entries
        self.heap_high_water: int = 0
        self.profile_every = profile_every
        #: wall-clock seconds spent inside sampled callbacks
        self.callback_wall_time: float = 0.0
        self.callbacks_sampled: int = 0
        #: optional phase profiler (see :mod:`repro.obs.profiler`); when
        #: attached and enabled, every callback is timed and counted by
        #: kind.  All clock reads happen inside the profiler's sampling
        #: shim — this loop only calls its hooks.
        self.profiler: Optional["PhaseProfiler"] = None

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        return self._push(delay, callback, args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        The event fires at ``now + (time - now)``, which can differ from
        ``time`` in the last bit; same-instant ties depend on it.
        """
        return self._push(time - self.now, callback, args)

    def _push(
        self, delay: float, callback: Callable, args: Tuple[Any, ...]
    ) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._live += 1
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)
        return handle

    def peek_time(self) -> Optional[float]:
        """Return the virtual time of the next live event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def _drop_cancelled(self) -> None:
        # Cancelled events were removed from the live count at cancel time;
        # this only reclaims their heap slots.
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def step(self) -> bool:
        """Execute the next live event.  Return ``False`` if none remain."""
        # Pop until a live event surfaces: a caller that has just peeked
        # (``run``) has already discarded any cancelled heads.
        heap = self._heap
        while True:
            if not heap:
                return False
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                break
        self._live -= 1
        event.sim = None  # executed: a late cancel() must not re-decrement
        if event.time < self.now:
            raise SimulationError(
                f"event queue corrupted: event at {event.time} < now {self.now}"
            )
        self.now = event.time
        self.events_executed += 1
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            # Phase attribution: the whole callback is "dispatch"; deeper
            # phases (sequencing/delivery/trace) subtract themselves.
            profiler.dispatch_begin(event.callback)
            event.callback(*event.args)
            profiler.dispatch_end(self.now)
        elif self.profile_every and self.events_executed % self.profile_every == 0:
            # Sampling profiler: wall time spent inside the callback is
            # recorded for diagnostics and never feeds virtual time.
            # simlint: disable=SL101 -- wall-time accounting only
            start = perf_counter()
            event.callback(*event.args)
            # simlint: disable=SL101 -- see above; wall-time accounting only.
            self.callback_wall_time += perf_counter() - start
            self.callbacks_sampled += 1
        else:
            event.callback(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events executed by this call.  Events scheduled
        exactly at ``until`` still execute; later ones remain queued.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        return executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Maintained incrementally on schedule/execute/cancel — O(1), unlike
        the full heap scan this property once performed.
        """
        return self._live

    def __repr__(self) -> str:
        return f"<Simulator now={self.now:.6f} pending={self.pending}>"
