"""Standby selection and live failover of suspected sequencing nodes.

The fabric's :meth:`~repro.core.protocol.OrderingFabric.relocate_node`
does the actual state move (atoms, counters, link buffers — see its
docstring for the full transfer protocol); this module decides *where*
to move and glues detection to relocation:

* :func:`choose_standby` picks a standby machine near the failed node's
  subscribers — the access router of a random member of one of the
  groups the node's atoms serve, mirroring the Section 3.4 placement
  intuition that sequencers belong near their traffic.
* :func:`fail_over` resolves the target and performs the relocation.
* :func:`wire_failover` connects a :class:`HeartbeatDetector` suspicion
  to an automatic failover and clears the suspicion afterwards, giving
  the relocated incarnation a fresh grace period.
"""

import random
from typing import TYPE_CHECKING, Optional

from repro.core.protocol import FailoverRecord

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.protocol import OrderingFabric
    from repro.faults.detector import HeartbeatDetector

__all__ = ["choose_standby", "fail_over", "wire_failover"]


def choose_standby(
    fabric: "OrderingFabric", node_id: int, rng: random.Random
) -> int:
    """Pick a standby machine for ``node_id``, near its subscribers.

    Candidates are the access routers of the members of every group the
    node's atoms sequence, minus the failed machine itself — a standby
    co-located with traffic keeps post-failover paths short.  Falls back
    to a uniformly random router if no candidate remains.
    """
    process = fabric.node_processes[node_id]
    groups = set()
    for atom_id in process.atom_runtimes:
        groups.update(atom_id.groups)
    members = set()
    for group in sorted(groups):
        members.update(fabric.membership.members(group))
    candidates = sorted(
        {
            fabric._host_by_id[member].router
            for member in members
            if member in fabric._host_by_id
        }
        - {process.machine}
    )
    if candidates:
        return candidates[rng.randrange(len(candidates))]
    return rng.randrange(fabric.topology.n_nodes)


def fail_over(
    fabric: "OrderingFabric",
    node_id: int,
    target_machine: Optional[int] = None,
    rng: Optional[random.Random] = None,
    transfer_delay: float = 0.0,
) -> FailoverRecord:
    """Relocate a (suspected) sequencing node to a standby machine, live.

    ``target_machine`` overrides standby selection; otherwise
    :func:`choose_standby` picks one with ``rng`` (seeded from the node
    id when omitted, so an unparameterized call is still deterministic).
    """
    if target_machine is None:
        if rng is None:
            rng = random.Random(node_id)
        target_machine = choose_standby(fabric, node_id, rng)
    return fabric.relocate_node(node_id, target_machine, transfer_delay=transfer_delay)


def wire_failover(
    fabric: "OrderingFabric",
    detector: "HeartbeatDetector",
    rng: Optional[random.Random] = None,
    transfer_delay: float = 0.0,
) -> None:
    """Auto-fail-over every suspicion the detector raises.

    Installs a ``detector.on_suspect`` handler that relocates the
    suspected node via :func:`fail_over` and then clears the suspicion,
    so the new incarnation is monitored like any other node.  The
    resulting :class:`~repro.core.protocol.FailoverRecord` objects
    accumulate on ``fabric.failovers``.
    """
    chooser = rng if rng is not None else random.Random(0)

    def _on_suspect(node_id: int, silence: float) -> None:
        fail_over(
            fabric,
            node_id,
            rng=chooser,
            transfer_delay=transfer_delay,
        )
        detector.clear(node_id)

    detector.on_suspect = _on_suspect
