"""In-memory span recorder for the traced benchmark run.

``Tracer.install()`` replaces a fixed list of public entry points of
``repro`` with timing wrappers.  Every call appends one span
``(name, start, end, parent)`` to parallel arrays; nothing is aggregated
until the run is over.  A layer's *self time* is its span's duration
minus the durations of the spans it directly caused.

The entry points are named as strings so a renamed or removed one fails
the traced run by name instead of silently reporting zero.
"""

import importlib
import inspect
import sys
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``module:qualname`` of every wrapped entry point (one span name each).
ENTRY_POINTS: Tuple[str, ...] = (
    "repro.topology.gtitm:generate_transit_stub",
    "repro.topology.routing:RoutingTable.__init__",
    "repro.topology.routing:RoutingTable.delay",
    "repro.topology.clusters:attach_hosts",
    "repro.core.overlaps:double_overlaps",
    "repro.core.sequencing_graph:SequencingGraph.build",
    "repro.core.sequencing_graph:SequencingGraph.validate",
    "repro.core.sequencing_graph:SequencingGraph.add_group",
    "repro.core.sequencing_graph:SequencingGraph.remove_group",
    "repro.core.placement:place",
    "repro.core.protocol:OrderingFabric.__init__",
    "repro.core.protocol:OrderingFabric.publish",
    "repro.core.protocol:OrderingFabric.run",
    "repro.core.protocol:OrderingFabric.inject_epoch_fences",
    "repro.sim.events:Simulator.step",
    "repro.sim.network:Channel.send",
    "repro.core.protocol:SequencingNodeProcess.receive",
    "repro.core.protocol:SequencingNodeProcess.process_at",
    "repro.core.atoms:AtomRuntime.process",
    "repro.core.protocol:HostProcess.receive",
    "repro.core.delivery:DeliveryState.on_receive",
    "repro.runtime.trace:Trace.record",
    "repro.core.reconfigure:reconfigure",
    "repro.check.graph_verify:verify_certificate",
    "repro.runtime.service:OrderingService.handle",
)

#: called after a span closes with ``(args, kwargs, result)``; its own
#: cost lands in the parent's self time, so keep captures to an append
AfterHook = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


class MissingEntryPoint(LookupError):
    """A wrapped entry point no longer exists under its recorded name."""


def _resolve(spec: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for a ``module:qualname`` spec."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        target = owner.__dict__[parts[-1]] if inspect.isclass(owner) else getattr(
            owner, parts[-1]
        )
    except (ImportError, AttributeError, KeyError) as exc:
        raise MissingEntryPoint(f"traced entry point {spec} is missing: {exc!r}")
    return owner, parts[-1], target


class Tracer:
    """Span arrays plus the install/uninstall of the timing wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        #: (owner, attribute, original, wrapper) of every rebinding
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._after: Dict[str, AfterHook] = {}
        self.installed = False
        #: times tracing was switched off; captures that must be gap-free
        #: stop at the first one
        self.uninstalls = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def after(self, spec: str, hook: AfterHook) -> None:
        """Capture inputs/outputs of one entry point (set before install)."""
        if spec not in ENTRY_POINTS:
            raise MissingEntryPoint(f"{spec} is not a traced entry point")
        self._after[spec] = hook

    def span(self, name: str) -> "_ManualSpan":
        """A span around one of the benchmark's own calls into a layer."""
        return _ManualSpan(self, self._name_id(name))

    def _open(self, name_id: int) -> int:
        index = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, function: Any, name_id: int, hook: Optional[AfterHook]) -> Any:
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, perf_counter

        if inspect.iscoroutinefunction(function):
            # A coroutine is on the span stack only while its own code
            # runs: each resumed segment is one span, so a handler parked
            # on an await never adopts the spans of other tasks.
            @types.coroutine
            def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
                steps = function(*args, **kwargs).__await__()
                value: Any = None
                while True:
                    index = self._open(name_id)
                    try:
                        yielded = steps.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self._close(index)
                    value = yield yielded

            return traced_coroutine

        def traced(*args: Any, **kwargs: Any) -> Any:
            # _open/_close written out: this wrapper sits on every hot call
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; fails by name if one is missing.

        The first call resolves the entry points and builds the wrappers;
        later calls (a traced run switches tracing off and on between
        rounds) only put the same wrappers back.
        """
        if self.installed:
            return
        if not self._patches:
            resolved = [(spec,) + _resolve(spec) for spec in ENTRY_POINTS]
            for spec, owner, attribute, function in resolved:
                self._plan(spec, owner, attribute, function)
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self.installed = True

    def _plan(self, spec: str, owner: Any, attribute: str, function: Any) -> None:
        name_id = self._name_id(spec.partition(":")[2])
        hook = self._after.get(spec)
        if isinstance(function, classmethod):
            wrapper: Any = classmethod(self._wrap(function.__func__, name_id, hook))
        else:
            wrapper = self._wrap(function, name_id, hook)
        if inspect.isclass(owner):
            self._patches.append((owner, attribute, function, wrapper))
            return
        # A module-level function is imported by name elsewhere
        # (``from repro.core.placement import place``): rebind every
        # loaded module global that still is the original.
        for module in list(sys.modules.values()):
            for key, value in list(getattr(module, "__dict__", {}).items()):
                if value is function:
                    self._patches.append((module, key, function, wrapper))

    def uninstall(self) -> None:
        """Restore every original; recorded spans stay."""
        if not self.installed:
            return
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self.installed = False
        self.uninstalls += 1

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> Dict[str, "SpanStats"]:
        """Per-name calls, total and self time, and the raw durations."""
        count = len(self.name_of)
        child_time = [0.0] * count
        stats = {name: SpanStats() for name in self.names}
        by_id = [stats[name] for name in self.names]
        for index in range(count):
            duration = self.end[index] - self.start[index]
            parent = self.parent[index]
            if parent >= 0:
                child_time[parent] += duration
        for index in range(count):
            duration = self.end[index] - self.start[index]
            entry = by_id[self.name_of[index]]
            entry.durations.append(duration)
            entry.total += duration
            entry.self_time += duration - child_time[index]
        return stats

    def time_inside(self, ancestor: str) -> Dict[str, float]:
        """Total duration, by span name, of every span that ran inside a
        span called ``ancestor`` (directly or through other spans)."""
        totals: Dict[str, float] = {}
        ancestor_id = self._index.get(ancestor)
        if ancestor_id is None:
            return totals
        inside = [False] * len(self.name_of)
        for index, parent in enumerate(self.parent):
            if parent >= 0 and (inside[parent] or self.name_of[parent] == ancestor_id):
                inside[index] = True
                name = self.names[self.name_of[index]]
                totals[name] = totals.get(name, 0.0) + (
                    self.end[index] - self.start[index]
                )
        return totals


class SpanStats:
    """Aggregate of every span sharing one name."""

    __slots__ = ("durations", "total", "self_time")

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.total = 0.0
        self.self_time = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    def mean(self, scale: float) -> float:
        """Mean duration per call times ``scale`` (0 when never called)."""
        return self.total / self.calls * scale if self.calls else 0.0

    def mean_self(self, scale: float) -> float:
        """Mean self time per call times ``scale`` (0 when never called)."""
        return self.self_time / self.calls * scale if self.calls else 0.0


class _ManualSpan:
    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._name_id)

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(self._index)
