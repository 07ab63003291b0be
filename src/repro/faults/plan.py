"""Deterministic fault plans: timed fault actions driving a fabric.

A :class:`FaultPlan` is a list of timed, typed fault actions — node and
host crashes, link outages, partitions, delay spikes, loss windows —
that :meth:`FaultPlan.apply` schedules on a fabric's simulator before
the run starts.  Because actions fire at fixed virtual times and all
randomness comes from injected seeded RNGs, a plan replays bit-for-bit:
the same plan on the same fabric seed produces the same event sequence,
which is what lets a chaos failure be re-run and debugged.

Plans compose: overlapping windows are legal (an outage inside a loss
window while a node is crashed), because each action only widens a
fault already modelled by the simulator (crash windows accumulate via
``max``, outage windows likewise, loss/delay mutations save and restore
per-channel originals).

:func:`random_plan` draws a plan from a seeded RNG — the chaos-campaign
generator.  Crash targets prefer sequencing nodes hosting many atoms so
injected faults actually intersect traffic.

Loss windows and crashes rely on the fabric's reliable link layer to
recover the dropped packets; apply plans containing them only to
fabrics built with ``loss_rate > 0`` or an explicit
``retransmit_timeout`` (the crash actions enforce this themselves).
"""

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.protocol import OrderingFabric
    from repro.runtime.interfaces import Link

__all__ = [
    "CrashHost",
    "CrashNode",
    "DelaySpike",
    "FaultAction",
    "FaultPlan",
    "LinkOutage",
    "LossWindow",
    "Partition",
    "random_plan",
]


@dataclass(frozen=True)
class FaultAction:
    """Base class: one fault firing at virtual time ``at``."""

    at: float

    #: short machine-readable action name (overridden per subclass)
    KIND = "fault"

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.KIND}: fire time must be >= 0, got {self.at}")

    def _require_positive(self, name: str) -> None:
        value = getattr(self, name)
        if value <= 0:
            raise ValueError(f"{self.KIND}: {name} must be positive, got {value}")

    def apply(self, fabric: "OrderingFabric") -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """JSON-able description for chaos reports."""
        return {"kind": self.KIND, "at": self.at}


@dataclass(frozen=True)
class CrashNode(FaultAction):
    """Fail-stop a sequencing node; ``duration=None`` crashes it for good.

    A permanent crash (the chaos campaign's main dish) leaves the node
    down until a failover relocates it — exactly the situation the
    heartbeat detector and :func:`repro.faults.failover.fail_over` exist
    to resolve.
    """

    node_id: int = 0
    duration: Optional[float] = None

    KIND = "crash_node"

    def validate(self) -> None:
        super().validate()
        if self.duration is not None and self.duration <= 0:
            raise ValueError(
                f"{self.KIND}: duration must be positive or None (permanent), "
                f"got {self.duration}"
            )

    def apply(self, fabric: "OrderingFabric") -> None:
        duration = self.duration if self.duration is not None else float("inf")
        fabric.node_processes[self.node_id].crash(duration)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "node_id": self.node_id,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class CrashHost(FaultAction):
    """Fail-stop an end host for ``duration`` ms (receiver downtime)."""

    host_id: int = 0
    duration: float = 1.0

    KIND = "crash_host"

    def validate(self) -> None:
        super().validate()
        self._require_positive("duration")

    def apply(self, fabric: "OrderingFabric") -> None:
        fabric.host_processes[self.host_id].crash(self.duration)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "host_id": self.host_id,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class LinkOutage(FaultAction):
    """Outage on both directions of the link between two named processes.

    ``src``/``dst`` are process names (e.g. ``("seq", 3)`` or
    ``("host", 7)``).  Channels created while the outage is active
    inherit the remaining window, so a failover re-creating the channel
    cannot tunnel through the outage.
    """

    src: Any = None
    dst: Any = None
    duration: float = 1.0

    KIND = "link_outage"

    def validate(self) -> None:
        super().validate()
        self._require_positive("duration")
        if self.src is None or self.dst is None or self.src == self.dst:
            raise ValueError(
                f"{self.KIND}: needs two distinct endpoint names, "
                f"got {self.src!r} and {self.dst!r}"
            )

    def apply(self, fabric: "OrderingFabric") -> None:
        fabric.network.partition(
            frozenset({self.src}), self.duration, frozenset({self.dst})
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "src": repr(self.src),
            "dst": repr(self.dst),
            "duration": self.duration,
        }


@dataclass(frozen=True)
class Partition(FaultAction):
    """Cut a set of processes off from another set (default: the rest)."""

    side: Tuple[Any, ...] = ()
    duration: float = 1.0
    side_b: Optional[Tuple[Any, ...]] = None

    KIND = "partition"

    def validate(self) -> None:
        super().validate()
        self._require_positive("duration")
        if not self.side:
            raise ValueError(f"{self.KIND}: side must be non-empty")

    def apply(self, fabric: "OrderingFabric") -> None:
        other = frozenset(self.side_b) if self.side_b is not None else None
        fabric.network.partition(frozenset(self.side), self.duration, other)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "side": [repr(name) for name in self.side],
            "side_b": (
                [repr(name) for name in self.side_b]
                if self.side_b is not None
                else None
            ),
            "duration": self.duration,
        }


@dataclass(frozen=True)
class DelaySpike(FaultAction):
    """Multiply channel propagation delays by ``factor`` for a window.

    Targets every channel existing at fire time (or only those touching
    process ``name`` when given) and restores each channel's original
    delay — by object identity — when the window closes.  Channels
    created during the window keep their base delay; the spike models a
    transient congestion episode, not a topology change.  FIFO survives
    the mutation because channels never deliver before an earlier send.
    """

    factor: float = 2.0
    duration: float = 1.0
    name: Any = None

    KIND = "delay_spike"

    def validate(self) -> None:
        super().validate()
        self._require_positive("duration")
        self._require_positive("factor")

    def apply(self, fabric: "OrderingFabric") -> None:
        spiked = []
        for channel in _channels_touching(fabric, self.name):
            spiked.append((channel, channel.delay))
            channel.delay = channel.delay * self.factor
        fabric.sim.schedule(self.duration, self._restore, spiked)

    def _restore(self, spiked: List[Tuple["Link", float]]) -> None:
        for channel, original in spiked:
            channel.delay = original

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "factor": self.factor,
            "duration": self.duration,
            "name": repr(self.name) if self.name is not None else None,
        }


@dataclass(frozen=True)
class LossWindow(FaultAction):
    """Raise channel loss to ``loss_rate`` for a window, then restore.

    Targets every channel existing at fire time (or only those touching
    process ``name``).  Channels whose fabric was built loss-free get a
    seeded RNG installed for the window's Bernoulli draws.  The fabric
    must be reliable (retransmission enabled) or the lost packets are
    lost for good.
    """

    loss_rate: float = 0.2
    duration: float = 1.0
    name: Any = None
    seed: int = 0

    KIND = "loss_window"

    def validate(self) -> None:
        super().validate()
        self._require_positive("duration")
        if not 0.0 < self.loss_rate < 1.0:
            raise ValueError(
                f"{self.KIND}: loss_rate must be in (0, 1), got {self.loss_rate}"
            )

    def apply(self, fabric: "OrderingFabric") -> None:
        rng = random.Random(self.seed)
        window = []
        for channel in _channels_touching(fabric, self.name):
            window.append((channel, channel.loss_rate))
            if channel._rng is None:
                channel._rng = rng
            channel.loss_rate = self.loss_rate
        fabric.sim.schedule(self.duration, self._restore, window)

    def _restore(self, window: List[Tuple["Link", float]]) -> None:
        for channel, original in window:
            channel.loss_rate = original

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "at": self.at,
            "loss_rate": self.loss_rate,
            "duration": self.duration,
            "name": repr(self.name) if self.name is not None else None,
        }


def _channels_touching(fabric: "OrderingFabric", name: Any) -> List["Link"]:
    """Every channel existing now (only those touching process ``name``
    when given), in a deterministic order."""
    channels = fabric.network.channels
    return [
        channels[key]
        for key in sorted(channels, key=repr)
        if name is None or name in key
    ]


@dataclass
class FaultPlan:
    """An ordered schedule of fault actions for one simulation run."""

    actions: List[FaultAction] = field(default_factory=list)

    def add(self, action: FaultAction) -> "FaultPlan":
        """Append an action (fluent); ordering is by fire time at apply."""
        self.actions.append(action)
        return self

    def validate(self) -> None:
        """Raise ``ValueError`` on the first ill-formed action."""
        for action in self.actions:
            action.validate()

    def sorted_actions(self) -> List[FaultAction]:
        """Actions by (fire time, insertion order) — the execution order."""
        indexed = list(enumerate(self.actions))
        indexed.sort(key=lambda pair: (pair[1].at, pair[0]))
        return [action for _index, action in indexed]

    def apply(self, fabric: "OrderingFabric") -> None:
        """Validate, then schedule every action on the fabric's simulator.

        Call before (or during) the run; actions at times already in the
        past would violate the simulator's monotonic clock.
        """
        self.validate()
        for action in self.sorted_actions():
            fabric.sim.schedule_at(action.at, action.apply, fabric)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-able action descriptions, in execution order."""
        return [action.describe() for action in self.sorted_actions()]


def random_plan(
    fabric: "OrderingFabric",
    rng: random.Random,
    window: float,
    node_crashes: int = 1,
    host_crashes: int = 1,
    link_outages: int = 1,
    loss_windows: int = 1,
    delay_spikes: int = 1,
    permanent_crash: bool = True,
) -> FaultPlan:
    """Draw a seeded chaos plan targeting a fabric's busiest components.

    Faults fire inside ``[0.15, 0.85] * window`` so traffic exists both
    before the first fault and after the last heals.  Node-crash targets
    are drawn from the sequencing nodes hosting the most atoms (crashing
    an idle node proves nothing); the first node crash is permanent when
    ``permanent_crash`` is set — it stays down until a failover.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    lo, hi = 0.15 * window, 0.85 * window

    def when() -> float:
        return lo + (hi - lo) * rng.random()

    plan = FaultPlan()

    # Crash the busiest sequencing nodes (most atoms = most traffic).
    by_load = sorted(
        fabric.node_processes,
        key=lambda node_id: (-len(fabric.node_processes[node_id].atom_runtimes), node_id),
    )
    candidates = [n for n in by_load if fabric.node_processes[n].atom_runtimes]
    pool = candidates[: max(node_crashes, min(len(candidates), 4))]
    targets = rng.sample(pool, min(node_crashes, len(pool)))
    for index, node_id in enumerate(sorted(targets)):
        permanent = permanent_crash and index == 0
        plan.add(
            CrashNode(
                at=when(),
                node_id=node_id,
                duration=None if permanent else (0.05 + 0.1 * rng.random()) * window,
            )
        )

    host_ids = sorted(fabric.host_processes)
    for host_id in rng.sample(host_ids, min(host_crashes, len(host_ids))):
        plan.add(
            CrashHost(
                at=when(),
                host_id=host_id,
                duration=(0.05 + 0.1 * rng.random()) * window,
            )
        )

    # Outages between pairs of distinct sequencing nodes.
    node_names = [fabric.node_processes[n].name for n in sorted(fabric.node_processes)]
    for _ in range(link_outages):
        if len(node_names) < 2:
            break
        src, dst = rng.sample(node_names, 2)
        plan.add(
            LinkOutage(
                at=when(), src=src, dst=dst, duration=(0.05 + 0.1 * rng.random()) * window
            )
        )

    for index in range(loss_windows):
        plan.add(
            LossWindow(
                at=when(),
                loss_rate=0.1 + 0.2 * rng.random(),
                duration=(0.05 + 0.1 * rng.random()) * window,
                seed=rng.randrange(2**31) + index,
            )
        )

    for _ in range(delay_spikes):
        plan.add(
            DelaySpike(
                at=when(),
                factor=2.0 + 3.0 * rng.random(),
                duration=(0.05 + 0.1 * rng.random()) * window,
            )
        )

    plan.validate()
    return plan
