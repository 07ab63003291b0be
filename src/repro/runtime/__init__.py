"""repro.runtime — the execution substrate the protocol core runs on.

This package defines the narrow interface the ordering protocol needs
from a runtime (:mod:`~repro.runtime.interfaces`: node handle, link,
transport, backend) plus the transport-neutral building blocks that used
to live inside the simulator — the process base class
(:mod:`~repro.runtime.node`), the trace flight recorder
(:mod:`~repro.runtime.trace`), runtime errors
(:mod:`~repro.runtime.errors`), and the sanctioned wall-clock shim
(:mod:`~repro.runtime.wallclock`).

Two backends implement the interface:

* :class:`~repro.runtime.sim_backend.SimTransport` — the discrete-event
  simulator (default; deterministic, byte-identical on fixed seeds);
* :class:`~repro.runtime.asyncio_backend.AsyncioTransport` — a live
  runtime: one timer heap on an asyncio event loop against scaled wall
  time, fronted by the TCP service façade in
  :mod:`repro.runtime.service`.

Backend classes are re-exported lazily: ``repro.runtime.sim_backend``
imports the simulator, which itself imports this package's neutral
modules, so an eager re-export here would create an import cycle.  The
service façade is *not* re-exported at all (it imports ``repro.core``);
import :mod:`repro.runtime.service` directly.
"""

from typing import Any

from repro.runtime.errors import RuntimeUnavailable, SimulationError
from repro.runtime.interfaces import (
    CancelHandle,
    Link,
    NodeHandle,
    RuntimeBackend,
    Transport,
)
from repro.runtime.node import Process
from repro.runtime.trace import Trace, TraceRecord
from repro.runtime.wallclock import LiveClock, read_wall_clock

__all__ = [
    "AsyncioTransport",
    "CancelHandle",
    "Link",
    "LiveClock",
    "NodeHandle",
    "Process",
    "RuntimeBackend",
    "RuntimeUnavailable",
    "SimTransport",
    "SimulationError",
    "Trace",
    "TraceRecord",
    "Transport",
    "read_wall_clock",
]

_LAZY = {
    "SimTransport": ("repro.runtime.sim_backend", "SimTransport"),
    "AsyncioTransport": ("repro.runtime.asyncio_backend", "AsyncioTransport"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
