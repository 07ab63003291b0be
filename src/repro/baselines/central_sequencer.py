"""Centralized sequencer baseline.

The classic asymmetric ordering protocol: every publisher sends its
message to one coordinator, which assigns a global sequence number and
forwards the message to the destination group's members.  Delivery order
is the coordinator's processing order; since all coordinator→member
channels are FIFO, members of common groups trivially agree.

This is the design the paper argues against for scale: the coordinator
handles *every* message in the system (its load grows with total traffic,
not with any receiver's traffic) and is a single point of failure.  The
comparison benchmark quantifies the load gap against sequencing atoms.
"""

from dataclasses import dataclass
from typing import Any, Optional

from repro.baselines.common import BaselineFabric
from repro.core.messages import HEADER_BYTES, Stamp
from repro.pubsub.membership import GroupMembership
from repro.sim.network import Channel
from repro.runtime.node import Process
from repro.topology.clusters import Host
from repro.topology.routing import RoutingTable


@dataclass
class _SequencedMessage:
    stamp: Stamp
    payload: Any
    msg_id: int
    sender: int
    publish_time: float

    def size_bytes(self) -> int:
        return HEADER_BYTES


class _CoordinatorProcess(Process):
    """The single sequencer: stamp with a global number, fan out.

    With a positive ``service_time`` the coordinator is a single FIFO
    server — the bottleneck model used by the throughput benchmark.
    """

    def __init__(
        self,
        sim,
        router: int,
        fabric: "CentralSequencerFabric",
        service_time: float = 0.0,
    ):
        super().__init__(sim, ("coordinator", 0))
        self.router = router
        self.fabric = fabric
        self.service_time = service_time
        self.global_seq = 0
        self.messages_sequenced = 0
        self._busy_until = 0.0
        self.queue_high_water = 0
        self._queued = 0

    def receive(self, payload: Any, channel: Channel) -> None:
        if self.service_time <= 0:
            self._sequence(payload)
            return
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.service_time
        self._queued += 1
        self.queue_high_water = max(self.queue_high_water, self._queued)
        self.sim.schedule_at(self._busy_until, self._complete, payload)

    def _complete(self, payload: Any) -> None:
        self._queued -= 1
        self._sequence(payload)

    def _sequence(self, payload: Any) -> None:
        self.global_seq += 1
        self.messages_sequenced += 1
        payload.stamp = Stamp(group=payload.stamp.group, group_seq=self.global_seq)
        self.fabric._fan_out(payload)


class CentralSequencerFabric(BaselineFabric):
    """Coordinator-ordered pub/sub over the shared simulation substrate.

    Parameters
    ----------
    membership, hosts, routing:
        Shared substrate, as for the main protocol's fabric.
    coordinator_router:
        Router hosting the coordinator.  By default the host router with
        the smallest mean delay to all other host routers (the kindest
        possible coordinator placement, making the baseline comparison
        conservative).
    service_time:
        Per-message processing time at the coordinator, in milliseconds
        (0 = infinitely fast coordinator).
    """

    def __init__(
        self,
        membership: GroupMembership,
        hosts,
        routing: RoutingTable,
        coordinator_router: Optional[int] = None,
        trace: bool = True,
        service_time: float = 0.0,
    ):
        super().__init__(membership, hosts, routing, trace=trace)
        if coordinator_router is None:
            coordinator_router = self._best_router()
        self.coordinator = _CoordinatorProcess(
            self.sim, coordinator_router, self, service_time=service_time
        )
        self.network.add_process(self.coordinator)

    def _best_router(self) -> int:
        """Host router minimizing mean delay to every other host router."""
        routers = sorted({h.router for h in self.hosts})
        best_router = routers[0]
        best_mean = None
        for candidate in routers:
            mean = sum(self.routing.delays_to(candidate, routers)) / len(routers)
            if best_mean is None or mean < best_mean:
                best_mean = mean
                best_router = candidate
        return best_router

    def _host_coord_delay(self, host: Host) -> float:
        return host.access_delay + self.routing.delay(host.router, self.coordinator.router)

    def publish(self, sender: int, group: int, payload: Any = None) -> int:
        """Send a message to the coordinator for global sequencing."""
        if not self.membership.has_group(group):
            raise KeyError(f"no such group {group}")
        msg = _SequencedMessage(
            stamp=Stamp(group=group, group_seq=0),
            payload=payload,
            msg_id=self.next_msg_id(),
            sender=sender,
            publish_time=self.sim.now,
        )
        self.trace.record(self.sim.now, "publish", msg=msg.msg_id, group=group, sender=sender)
        src = self.host_processes[sender]
        channel = self.channel_between(src, self.coordinator, self._host_coord_delay(src.host))
        channel.send(msg, msg.size_bytes())
        return msg.msg_id

    def _fan_out(self, msg: _SequencedMessage) -> None:
        for member in sorted(self.membership.members(msg.stamp.group)):
            dst = self.host_processes[member]
            channel = self.channel_between(
                self.coordinator, dst, self._host_coord_delay(dst.host)
            )
            channel.send(msg, msg.size_bytes())

    def coordinator_load(self) -> int:
        """Messages the coordinator sequenced (its bottleneck figure)."""
        return self.coordinator.messages_sequenced
