"""Process-level resource sampling: peak RSS and GC pauses.

Both samplers degrade to no-ops on platforms without the underlying
facility (``resource`` is POSIX-only; ``gc.callbacks`` is CPython), so
callers never need platform branches: :func:`peak_rss_bytes` returns
``None`` when unknown, and a :class:`GcPauseSampler` constructed where
callbacks are unavailable simply reports zeros.

:func:`register_process_collectors` mirrors both into a
:class:`~repro.obs.registry.MetricsRegistry` as pull collectors, so
``repro trace run --metrics`` exports them through the same pipeline as
every other metric.
"""

import gc
import sys
from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.runtime.wallclock import read_wall_clock

try:  # POSIX only; Windows has no resource module
    import resource as _resource
except ImportError:  # pragma: no cover - platform without getrusage
    _resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalized to bytes.  Returns ``None`` where ``getrusage`` is
    unavailable.  The value is a process-lifetime high-water mark — it
    never decreases, so per-workload readings in a long process report
    the peak *so far*, not the workload's own footprint.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


class GcPauseSampler:
    """Counts and times garbage-collection pauses via ``gc.callbacks``.

    The callback pair brackets each collection with two wall-clock reads
    (through the sanctioned wall-clock shim), accumulating pause count,
    total pause seconds, and objects collected.  Where ``gc.callbacks``
    does not exist the sampler is inert: :attr:`supported` is false and
    every figure stays zero.

    Use as a context manager or call :meth:`install` / :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.supported = hasattr(gc, "callbacks")
        self.pauses = 0
        self.pause_seconds = 0.0
        self.collected_objects = 0
        self._started: Optional[float] = None
        self._installed = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = read_wall_clock()
        elif self._started is not None:
            self.pause_seconds += read_wall_clock() - self._started
            self.pauses += 1
            self.collected_objects += int(info.get("collected", 0))
            self._started = None

    def install(self) -> "GcPauseSampler":
        """Start observing collections (idempotent)."""
        if self.supported and not self._installed:
            gc.callbacks.append(self._on_gc)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Stop observing collections (idempotent)."""
        if self._installed:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:
                pass
            self._installed = False

    def __enter__(self) -> "GcPauseSampler":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def to_dict(self) -> dict:
        """JSON-able snapshot (the bench report's ``gc`` section)."""
        return {
            "supported": self.supported,
            "pauses": self.pauses,
            "pause_s": self.pause_seconds,
            "collected_objects": self.collected_objects,
        }


def gc_collections_total() -> int:
    """Collections run so far across all generations (process lifetime)."""
    try:
        return sum(int(s.get("collections", 0)) for s in gc.get_stats())
    except (AttributeError, TypeError):  # pragma: no cover - non-CPython
        return 0


def register_process_collectors(
    registry: MetricsRegistry, sampler: Optional[GcPauseSampler] = None
) -> None:
    """Mirror peak RSS and GC figures into ``registry`` at collect time.

    Safe with a disabled registry (``register_collector`` is a no-op).
    Pass the :class:`GcPauseSampler` observing the run to export pause
    counts and seconds alongside the lifetime collection total.
    """

    def collect(reg: MetricsRegistry) -> None:
        rss = peak_rss_bytes()
        if rss is not None:
            reg.gauge(
                "repro_process_peak_rss_bytes",
                "peak resident set size of the process",
            ).set_max(rss)
        reg.counter(
            "repro_gc_collections",
            "garbage collections across all generations (process lifetime)",
        ).set_total(gc_collections_total())
        if sampler is not None:
            reg.counter(
                "repro_gc_pauses", "GC pauses observed by the sampler"
            ).set_total(sampler.pauses)
            reg.counter(
                "repro_gc_pause_seconds", "wall seconds spent in observed GC pauses"
            ).set_total(sampler.pause_seconds)

    registry.register_collector(collect)


__all__ = [
    "GcPauseSampler",
    "gc_collections_total",
    "peak_rss_bytes",
    "register_process_collectors",
]
