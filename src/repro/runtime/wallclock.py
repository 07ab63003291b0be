"""The sanctioned wall-clock shim — the only module allowed to read host time.

Simulation code must take time from its runtime's virtual clock; simlint's
SL101 rule enforces that across every sim-scoped package, including this
one (``repro.runtime`` is in the enforcement scope).  The two call sites
below carry the only sanctioned suppressions:

* :func:`read_wall_clock` — the sampling shim used by resource accounting
  and the live runtime's run-time limit.  Wall time is the *measured
  quantity* there, never an input to protocol decisions.
* :class:`LiveClock` — the live runtime's time source.  A real deployment
  has no virtual clock; the asyncio backend derives its millisecond
  timeline from one monotonic read per ``now`` access, confined here so
  the backend itself stays free of host-clock calls.
"""

from time import monotonic, perf_counter

__all__ = ["LiveClock", "read_wall_clock"]


def read_wall_clock() -> float:
    """The single sanctioned wall-clock read (sampling shim).

    Every wall-time measurement in the repository flows through here;
    simulation code must never read the host clock directly (simlint
    SL101 enforces this, and this module is inside its enforcement
    scope).
    """
    # simlint: disable=SL101 -- the sampling shim: wall time is the measured quantity
    return perf_counter()


class LiveClock:
    """Monotonic milliseconds since construction — the live runtime's clock.

    ``now`` is expressed in the project's virtual-time unit (milliseconds)
    so protocol code reading ``node.now`` is unit-compatible across the
    simulated and live backends.  ``time_scale`` compresses the timeline:
    with ``time_scale=0.001`` (the default) one virtual millisecond takes
    one real millisecond; smaller values run live scenarios faster than
    real time (used by the conformance suite and examples).
    """

    __slots__ = ("time_scale", "_t0")

    def __init__(self, time_scale: float = 0.001):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        # simlint: disable=SL101 -- the live clock's sanctioned epoch read
        self._t0 = monotonic()

    @property
    def now(self) -> float:
        """Virtual milliseconds elapsed since the clock was created."""
        # simlint: disable=SL101 -- the live clock's sanctioned time read
        return (monotonic() - self._t0) / self.time_scale

    def to_real_seconds(self, virtual_ms: float) -> float:
        """Convert a virtual-millisecond duration to real seconds."""
        return virtual_ms * self.time_scale

    def real_deadline(self, virtual_ms: float) -> float:
        """The ``time.monotonic()`` reading at which ``now`` reaches ``virtual_ms``.

        asyncio's event loops read the same monotonic clock for
        ``loop.time()``, so the live backend hands this straight to
        ``loop.call_at`` — arming a timer costs no clock read.
        """
        return self._t0 + virtual_ms * self.time_scale
