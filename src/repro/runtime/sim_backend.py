"""The discrete-event simulation backend.

:class:`SimTransport` packages the pre-split ``repro.sim`` machinery —
one :class:`~repro.sim.events.Simulator` and one
:class:`~repro.sim.network.Network` — behind the
:class:`~repro.runtime.interfaces.RuntimeBackend` surface.  Both objects
are exposed *directly* (the simulator is the node handle every process
receives, the network is the transport), so fabric construction over
this backend is byte-identical to the pre-split code on fixed seeds:
same objects, same RNG derivation (``Random(seed + 1)`` for channel
loss), same heap, same tie-breaking.  The exact-repeat records in
``bench/expected.json`` and the explain-determinism smoke gate this
equivalence in CI.
"""

import random
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Simulator
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.trace import Trace

__all__ = ["SimTransport"]


class SimTransport:
    """Simulated runtime backend: virtual clock, heap scheduler, model links.

    Parameters
    ----------
    seed:
        Seed for the transport-level RNG (channel loss draws); derived as
        ``seed + 1`` to match the historical in-fabric derivation exactly.
    loss_rate:
        Per-packet Bernoulli loss probability applied by every channel.
    """

    backend_name = "sim"

    def __init__(self, seed: int = 0, loss_rate: float = 0.0):
        self.seed = seed
        self.loss_rate = loss_rate
        #: the node handle handed to every process — the simulator itself
        self.scheduler = Simulator()
        #: channel loss uses its own stream, decoupled from protocol
        #: tie-breaking draws, with the pre-split derivation (seed + 1)
        self.transport = Network(
            self.scheduler, loss_rate=loss_rate, rng=random.Random(seed + 1)
        )

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drain the event heap (optionally bounded); see ``Simulator.run``."""
        return self.scheduler.run(until=until, max_events=max_events)

    def successor(self, seed: int, loss_rate: float) -> "SimTransport":
        """Fresh simulator + network for the next fabric epoch."""
        return SimTransport(seed=seed, loss_rate=loss_rate)

    def close(self) -> None:
        """Nothing to release: the simulator owns no OS resources."""

    def attach_trace(self, trace: "Trace") -> None:
        """No-op: the fabric records trace events itself in simulation."""

    def __repr__(self) -> str:
        return (
            f"<SimTransport seed={self.seed} loss_rate={self.loss_rate} "
            f"pending={self.scheduler.pending}>"
        )
