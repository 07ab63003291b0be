"""The narrow interface the ordering protocol needs from a runtime.

The protocol core (:mod:`repro.core`) stamps, forwards, buffers, and
delivers regardless of whether packets move over a simulated channel or a
real socket.  Everything it actually uses from an execution substrate is
captured by four small structural protocols:

* :class:`NodeHandle` — a virtual clock plus a timer service.  Processes
  hold one as ``self.node`` (historically ``self.sim``); the simulated
  backend hands out the :class:`~repro.sim.events.Simulator` itself, the
  live backend an :class:`~repro.runtime.asyncio_backend.AsyncioScheduler`.
* :class:`Link` — a unidirectional FIFO channel with a propagation delay,
  loss/outage hooks, and wire accounting.
* :class:`Transport` — the registry of processes and links: lazy channel
  creation from a delay, lookup, retirement (failover), partitions, and
  network-wide aggregates.
* :class:`RuntimeBackend` — the bundle a fabric is constructed over:
  a scheduler (clock + timers), a transport, and a way to drive the whole
  thing (``run``) plus lifecycle (``successor`` for epoch switches,
  ``close``).

All four are ``Protocol`` classes: the existing ``repro.sim`` machinery
conforms structurally with zero adaptation cost on the hot path, and the
asyncio backend implements the same duck-typed surface.
"""

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids obs coupling
    from repro.runtime.trace import Trace

__all__ = [
    "CancelHandle",
    "Link",
    "NodeHandle",
    "RuntimeBackend",
    "Transport",
]


@runtime_checkable
class CancelHandle(Protocol):
    """A cancellable reference to a scheduled timer/event."""

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        ...


@runtime_checkable
class NodeHandle(Protocol):
    """Clock + timer service a process runs against.

    The unit of ``now`` (and of every delay) is milliseconds by project
    convention; the simulated backend's time is virtual, the live
    backend's is scaled monotonic wall time.
    """

    #: callbacks executed since the runtime started
    events_executed: int

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        ...

    @property
    def pending(self) -> int:
        """Live (not-yet-fired, not-cancelled) units of outstanding work."""
        ...

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> CancelHandle:
        """Run ``callback(*args)`` ``delay`` milliseconds from now."""
        ...

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> CancelHandle:
        """Run ``callback(*args)`` at absolute time ``time``."""
        ...


@runtime_checkable
class Link(Protocol):
    """A unidirectional FIFO channel between two processes."""

    src: Any
    dst: Any
    delay: float
    sends: int
    receives: int
    loss_drops: int
    outage_drops: int
    bytes_sent: int
    in_flight: int
    in_flight_high_water: int

    @property
    def is_down(self) -> bool:
        """Whether the link is currently in an outage window."""
        ...

    def send(self, payload: Any, size_bytes: int = 0) -> bool:
        """Transmit; returns False if dropped by loss/outage injection."""
        ...

    def fail(self, duration: float) -> None:
        """Take the link down for ``duration`` milliseconds."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Process registry + channel factory (the fabric's network handle)."""

    channels_retired: int

    def add_process(self, process: Any) -> Any:
        """Register a process; names must be unique."""
        ...

    def process(self, name: Any) -> Any:
        """Look up a registered process by name."""
        ...

    def __contains__(self, name: Any) -> bool:
        ...

    def connect(self, src_name: Any, dst_name: Any, delay: float) -> Any:
        """Create (or fetch) the unidirectional channel ``src -> dst``."""
        ...

    def channel(self, src_name: Any, dst_name: Any) -> Any:
        """Fetch an existing channel; raises ``KeyError`` if absent."""
        ...

    @property
    def channels(self) -> Dict[Tuple[Any, Any], Any]:
        """Read-only view of all live channels (for metrics)."""
        ...

    def retire_channels(self, name: Any) -> int:
        """Remove every channel touching ``name`` (failover re-route)."""
        ...

    def partition(
        self,
        side: FrozenSet[Any],
        duration: float,
        side_b: Optional[FrozenSet[Any]] = None,
    ) -> int:
        """Cut ``side`` off from ``side_b`` (default: everything else)."""
        ...

    def total_sends(self) -> int: ...
    def total_drops(self) -> int: ...
    def total_loss_drops(self) -> int: ...
    def total_outage_drops(self) -> int: ...


@runtime_checkable
class RuntimeBackend(Protocol):
    """Everything a fabric is constructed over: scheduler + transport.

    ``scheduler`` doubles as the node handle every process receives; the
    simulated backend exposes the :class:`~repro.sim.events.Simulator`
    itself so the hot path is byte-identical to the pre-split code.
    """

    #: short backend identifier ("sim" | "asyncio")
    backend_name: str
    #: per-packet Bernoulli loss probability the transport was built with
    loss_rate: float

    @property
    def scheduler(self) -> NodeHandle:
        """The node handle handed to every process (clock + timers)."""
        ...

    @property
    def transport(self) -> Transport:
        """The process registry and channel factory."""
        ...

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drive the runtime until quiescent (or the horizon).

        Returns the number of callbacks executed by this call.  Live
        backends hosted on an external event loop raise
        :class:`~repro.runtime.errors.RuntimeUnavailable` — use their
        ``wait_quiescent`` coroutine instead.
        """
        ...

    def successor(self, seed: int, loss_rate: float) -> "RuntimeBackend":
        """A fresh backend of the same kind for the next fabric epoch."""
        ...

    def close(self) -> None:
        """Release backend resources (owned event loops etc.).  Idempotent."""
        ...

    def attach_trace(self, trace: "Trace") -> None:
        """Give the backend the fabric's trace (live backends may record)."""
        ...
