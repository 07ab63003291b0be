"""Transport-neutral runtime errors.

:class:`SimulationError` predates the transport split and kept its name
for compatibility: it is raised on *runtime misuse* — scheduling in the
past, re-entrant event-loop runs, protocol invariant breaches — whether
the runtime is the discrete-event simulator or the live asyncio backend.
"""

__all__ = ["RuntimeUnavailable", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when a runtime backend is used incorrectly.

    Examples include scheduling an event in the past, re-entrantly
    calling a backend's ``run``, or exercising crash/failover machinery
    without the reliable link layer.
    """


class RuntimeUnavailable(SimulationError):
    """Raised when an operation needs a backend capability that is absent.

    E.g. calling a blocking ``run()`` on an :class:`~repro.runtime.
    asyncio_backend.AsyncioTransport` that is hosted on an already-running
    event loop (use ``await backend.wait_quiescent()`` there instead).
    """
