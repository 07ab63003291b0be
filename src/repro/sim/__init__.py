"""Packet-level discrete-event simulation kernel.

This package provides the substrate on which the ordering protocol and its
baselines run.  It mirrors the simulation model of the paper's Section 4.1:
the network is modelled at packet level with per-link propagation delay;
queuing delay and (by default) packet loss are not modelled.  Loss can be
enabled explicitly to exercise the protocol's acknowledgment and
retransmission machinery.

The kernel is deliberately small and deterministic:

* :class:`~repro.sim.events.Simulator` — a heap-based event loop with stable
  tie-breaking, so two runs with the same seed produce identical schedules.
* :class:`~repro.sim.network.Channel` / :class:`~repro.sim.network.Network`
  — FIFO, constant-propagation-delay links with optional Bernoulli loss,
  and the registry that owns them.  This is the one network of every
  backend: the simulator and the asyncio scheduler put a surviving packet
  on their timer heap, the explorer on a wire queue its controller pops.

The process base class, the trace and the runtime errors are
transport-neutral and live in :mod:`repro.runtime.node`,
:mod:`repro.runtime.trace` and :mod:`repro.runtime.errors`.
"""

from repro.sim.events import EventHandle, Simulator
from repro.sim.network import Channel, Network

__all__ = [
    "Channel",
    "EventHandle",
    "Network",
    "Simulator",
]
