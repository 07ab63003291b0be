"""Deterministic heap-based discrete-event loop.

The simulator executes callbacks at scheduled virtual times.  Two events
scheduled for the same time fire in the order they were scheduled (stable
tie-breaking by a monotonically increasing sequence number), which keeps
simulations reproducible across runs and platforms.  The heap holds
``(time, seq, handle)`` tuples: ``seq`` is unique, so the tuple comparison
is decided on the first two fields, in C, and never reaches the handle.

An event may also be *reserved*: :meth:`Simulator.reserve` hands out the
key ``schedule_at`` would use and counts the event pending, and
:meth:`Simulator.push_reserved` queues it under that key later.  A channel
does this for every packet sent behind one in flight (see
:mod:`repro.sim.network`), so the heap holds one entry per busy channel,
not one per packet.

Observability: the loop maintains a live count of pending events (O(1),
updated on push/reserve/pop/cancel) and a heap-depth high-water mark.
Wall-time attribution lives outside the loop, in ``bench/run.py --trace 1``.
"""

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.errors import SimulationError

__all__ = ["EventHandle", "Simulator"]


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
    but the kernel itself is unit-agnostic.  ``now`` never moves backward.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._running: bool = False
        self.events_executed: int = 0
        #: live (non-cancelled) events in the queue, maintained in O(1)
        self._live: int = 0
        #: peak heap depth, including not-yet-collected cancelled entries
        #: (reserved events are pending but not in the heap)
        self.heap_high_water: int = 0

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

    def reserve(self, time: float) -> Tuple[float, int]:
        """Fix the ``(time, seq)`` key ``schedule_at(time)`` would use now,
        and count the event pending, without queuing it.

        The caller queues it with :meth:`push_reserved`; until then it
        holds no handle and no heap slot.  It cannot be cancelled.
        """
        delay = time - self.now
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        return self.now + delay, seq

    def push_reserved(
        self, time: float, seq: int, callback: Callable, *args: Any
    ) -> None:
        """Queue a reserved event under its key, or at ``now`` if the clock
        has passed it.

        A channel pushes its next packet from the callback of the one
        before, so ``now`` is that packet's key: the clamp keeps a key that
        rounded one ulp below its predecessor's in send order.
        """
        if time < self.now:
            time = self.now
        heap = self._heap
        heapq.heappush(heap, (time, seq, EventHandle(time, seq, callback, args, self)))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

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
        event.callback(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events executed by this call.  Events scheduled
        exactly at ``until`` still execute; later ones remain queued, and the
        clock then moves forward to ``until`` (never backward).
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
                    if until > self.now:
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
