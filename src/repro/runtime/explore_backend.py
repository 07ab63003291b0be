"""Controller-driven runtime backend for schedule-space exploration.

The third backend next to :mod:`repro.runtime.sim_backend` (virtual-time
heap) and :mod:`repro.runtime.asyncio_backend` (live tasks): here nothing
fires by itself.  Sends append packets to per-channel FIFO *wire queues*
and timers accumulate in a table; an external controller — the DFS model
checker in :mod:`repro.check.explore` — picks which queue head or timer
fires next.  That turns "what order do events happen in" from a property
of a time heap into a *choice point*, which is exactly what systematic
interleaving exploration needs.

The network is the one :class:`~repro.sim.network.Network` every backend
uses: registry, lazy ``connect``, partition cuts, retirement and the
``total_*`` aggregates are inherited, not restated.
:class:`ExploreChannel` and :class:`ExploreNetwork` override three steps:
where an admitted packet goes (the wire queue), which RNG a new channel
draws loss from, and what retirement keeps (a channel with packets still
on its wire).

Design constraints, all in service of the model checker:

* **Stable identity** — a transition is addressed by the channel it pops
  (``(src, dst)`` names) or the timer class it fires, never by object
  identity, so a recorded schedule replays against a fresh fabric.
* **Per-channel loss RNG** — unlike the sim transport's single shared
  loss stream, every channel draws from its own ``random.Random`` seeded
  by ``(seed, src, dst)``.  Two deliveries to *different* processes then
  commute exactly (neither perturbs the other's future loss draws), which
  is what makes the checker's partial-order reduction sound.
* **Monotonic virtual clock** — executing a transition advances ``now``
  to at least the packet's earliest arrival (or the timer's fire time),
  so outage windows, crash windows, and backoff timers keep their
  semantics under adversarial reorderings.
* **Plan vs. derived timers** — timers scheduled before
  :meth:`ExploreScheduler.seal_plan` (fault-plan actions) are first-class
  transitions the controller interleaves; timers created during execution
  (retransmissions, service completions) fire only at delivery
  quiescence.  See ``docs/STATIC_ANALYSIS.md`` for why this reduction
  preserves the checked invariants.

The backend also satisfies the :class:`~repro.runtime.interfaces.
RuntimeBackend` protocol standalone: :meth:`ExploreTransport.run` applies
a deterministic earliest-first default policy, so a fabric built over it
behaves like a (slightly coarser) discrete-event simulation when no
controller is attached.
"""

import random
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.runtime.errors import SimulationError
from repro.sim.network import Channel, Network

__all__ = [
    "ExploreChannel",
    "ExploreNetwork",
    "ExploreScheduler",
    "ExploreTransport",
]


class _ExploreTimer:
    """A cancellable timer record; fired explicitly by the controller."""

    __slots__ = ("time", "seq", "callback", "args", "plan", "cancelled",
                 "scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        plan: bool,
        scheduler: "ExploreScheduler",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.plan = plan
        self.cancelled = False
        self.scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            self.scheduler._timers.pop(self.seq, None)

    def __repr__(self) -> str:
        kind = "plan" if self.plan else "derived"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<_ExploreTimer t={self.time:.6f} seq={self.seq} {kind} {name}>"


class ExploreScheduler:
    """Clock + timer table whose firing order is chosen externally.

    Satisfies the :class:`~repro.runtime.interfaces.NodeHandle` protocol.
    ``now`` only moves forward, as the maximum of every executed event's
    nominal time — the model-checking reading of "some schedule in which
    these events happened in this order".
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self.events_executed = 0
        self._timers: Dict[int, _ExploreTimer] = {}
        #: timers scheduled while True are "plan" timers (fault actions)
        self._recording_plan = True
        #: extra pending-work counters (the network's wire queues)
        self.pending_sources: List[Callable[[], int]] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        extra = sum(source() for source in self.pending_sources)
        return len(self._timers) + extra

    def next_seq(self) -> int:
        """Globally ordered creation sequence (timers and wire entries)."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> _ExploreTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        timer = _ExploreTimer(
            self._now + delay, self.next_seq(), callback, args,
            self._recording_plan, self,
        )
        self._timers[timer.seq] = timer
        return timer

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _ExploreTimer:
        return self.schedule(max(0.0, time - self._now), callback, *args)

    def seal_plan(self) -> None:
        """End the plan-recording window: later timers are "derived"."""
        self._recording_plan = False

    def timers(self, plan: Optional[bool] = None) -> List[_ExploreTimer]:
        """Live timers, optionally filtered by class, in (time, seq) order."""
        live = [
            t for t in self._timers.values()
            if plan is None or t.plan == plan
        ]
        live.sort(key=lambda t: (t.time, t.seq))
        return live

    def advance_to(self, time: float) -> None:
        """Move the clock forward (never backward) to ``time``."""
        if time > self._now:
            self._now = time

    def fire(self, timer: _ExploreTimer) -> None:
        """Execute one live timer, advancing the clock to its fire time."""
        if timer.cancelled or self._timers.pop(timer.seq, None) is None:
            raise SimulationError(f"firing dead timer {timer!r}")
        timer.cancelled = True  # a late cancel() must be a no-op
        self.advance_to(timer.time)
        self.events_executed += 1
        timer.callback(*timer.args)

    def __repr__(self) -> str:
        return f"<ExploreScheduler now={self._now:.6f} pending={self.pending}>"


class ExploreChannel(Channel):
    """A :class:`~repro.sim.network.Channel` whose wire is a FIFO queue.

    Loss and outage decisions happen at *send* time exactly like every
    other backend's; what differs is the one step after them: a surviving
    packet waits on :attr:`wire` for the controller instead of on a time
    heap, whether the channel was idle or already had one in flight (the
    wire is the backlog).  Each queued entry remembers its FIFO-monotonic
    earliest arrival so delivering it can advance the virtual clock
    consistently.
    """

    def __init__(self, scheduler: ExploreScheduler, *args: Any, **kwargs: Any):
        super().__init__(scheduler, *args, **kwargs)
        self.scheduler = scheduler
        #: queued (payload, earliest arrival, creation seq) entries
        self.wire: Deque[Tuple[Any, float, int]] = deque()
        self._put = self._enqueue

    def _enqueue(self, arrival: float, _callback: Any, payload: Any) -> None:
        self.wire.append((payload, arrival, self.scheduler.next_seq()))

    def _queue(self, arrival: float, payload: Any) -> None:
        # Behind a packet in flight is the same wire: no timer to reserve.
        self._enqueue(arrival, None, payload)

    def head(self) -> Optional[Tuple[Any, float, int]]:
        """The next deliverable entry, or ``None`` for an empty wire."""
        return self.wire[0] if self.wire else None

    def deliver_head(self) -> None:
        """Pop and deliver the head entry (controller-chosen transition)."""
        if not self.wire:
            raise SimulationError(f"deliver on empty wire {self!r}")
        payload, arrival, _seq = self.wire.popleft()
        self.scheduler.advance_to(arrival)
        self.scheduler.events_executed += 1
        self._deliver(payload)


class ExploreNetwork(Network):
    """The shared :class:`~repro.sim.network.Network` over wire-queue channels.

    Two steps differ from the sim and asyncio backends: every channel
    draws loss from its own RNG, and a retired channel whose wire still
    holds packets stays deliverable — those packets were sent before the
    failover.
    """

    channel_class = ExploreChannel
    _channels: Dict[Tuple[Any, Any], ExploreChannel]

    def __init__(
        self,
        scheduler: ExploreScheduler,
        loss_rate: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(scheduler, loss_rate=loss_rate)
        self.seed = seed
        #: retired channels with packets still on the wire, in retirement order
        self._retired_inflight: List[Tuple[Tuple[Any, Any], ExploreChannel]] = []
        scheduler.pending_sources.append(self.queued_payloads)

    def _channel_rng(self, key: Tuple[Any, Any]) -> Optional[random.Random]:
        if self.loss_rate <= 0:
            return None
        # One independent stream per channel: deliveries to different
        # processes must not perturb each other's loss draws (POR
        # soundness), so the shared-stream sim idiom is out.
        return random.Random(f"{self.seed}|{key[0]!r}->{key[1]!r}")

    def _keep_retired(self, key: Tuple[Any, Any], channel: Channel) -> None:
        assert isinstance(channel, ExploreChannel)
        if channel.wire:
            self._retired_inflight.append((key, channel))

    # -- controller surface ------------------------------------------------

    def delivery_sources(self) -> List[Tuple[Tuple[Any, ...], ExploreChannel]]:
        """Non-empty wire queues with stable labels, in canonical order.

        Live channels are labelled ``(repr(src), repr(dst))``; retired
        in-flight channels get a positional ``"retired:N"`` suffix so a
        replayed schedule finds the same queue even after the same key was
        re-created live.
        """
        channels = self._channels
        sources: List[Tuple[Tuple[Any, ...], ExploreChannel]] = []
        for key in sorted(channels, key=repr):
            channel = channels[key]
            if channel.wire:
                sources.append(((repr(key[0]), repr(key[1])), channel))
        self._retired_inflight = [
            (key, ch) for key, ch in self._retired_inflight if ch.wire
        ]
        for index, (key, channel) in enumerate(self._retired_inflight):
            sources.append(
                ((repr(key[0]), repr(key[1]), f"retired:{index}"), channel)
            )
        return sources

    def queued_payloads(self) -> int:
        """Packets waiting on any wire (live or retired in-flight)."""
        live = sum(len(c.wire) for c in self._channels.values())
        return live + sum(len(c.wire) for _key, c in self._retired_inflight)


class ExploreTransport:
    """The explorer's :class:`~repro.runtime.interfaces.RuntimeBackend`.

    Construct a fabric over it, then either drive it through the DFS
    controller (:mod:`repro.check.explore`) or call :meth:`run` for the
    deterministic earliest-first default policy.
    """

    backend_name = "explore"

    def __init__(self, seed: int = 0, loss_rate: float = 0.0):
        self.seed = seed
        self.loss_rate = loss_rate
        self._scheduler = ExploreScheduler()
        self._transport = ExploreNetwork(
            self._scheduler, loss_rate=loss_rate, seed=seed + 1
        )

    @property
    def scheduler(self) -> ExploreScheduler:
        return self._scheduler

    @property
    def transport(self) -> ExploreNetwork:
        return self._transport

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Earliest-first default policy (no controller attached).

        Among all wire heads and live timers, repeatedly executes the one
        with the smallest ``(ready time, creation seq)`` — a coarse but
        deterministic approximation of the sim backend's heap order.
        """
        executed = 0
        while max_events is None or executed < max_events:
            best: Optional[Tuple[float, int, Callable[[], None]]] = None
            for _label, channel in self._transport.delivery_sources():
                head = channel.head()
                assert head is not None  # delivery_sources filters empties
                _payload, arrival, seq = head
                candidate = (arrival, seq, channel.deliver_head)
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
            for timer in self._scheduler.timers():
                candidate = (
                    timer.time, timer.seq,
                    lambda t=timer: self._scheduler.fire(t),
                )
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
            if best is None:
                break
            if until is not None and best[0] > until:
                self._scheduler.advance_to(until)
                break
            best[2]()
            executed += 1
        return executed

    def successor(self, seed: int, loss_rate: float) -> "ExploreTransport":
        return ExploreTransport(seed=seed, loss_rate=loss_rate)

    def close(self) -> None:
        """Nothing to release; present for backend-protocol parity."""

    def attach_trace(self, trace: Any) -> None:
        """The explorer records schedules itself; the trace is unused here."""

