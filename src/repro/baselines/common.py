"""Shared scaffolding for baseline ordering fabrics.

Each baseline wires host processes over the same simulator/topology
substrate as the main protocol, so latency and load comparisons are
apples-to-apples.  The :class:`BaselineFabric` base class owns the
simulator, the network, host registration, delay computation, and the
delivery bookkeeping; subclasses implement their protocol's ``publish``.
"""

from typing import Any, Dict, List, Optional

from repro.core.protocol import DeliveryRecord
from repro.pubsub.membership import GroupMembership
from repro.sim.events import Simulator
from repro.sim.network import Channel, Network
from repro.runtime.node import Process
from repro.runtime.trace import Trace
from repro.topology.clusters import Host
from repro.topology.routing import RoutingTable


class BaselineHostProcess(Process):
    """A host that records deliveries in arrival order.

    Baselines whose channels guarantee consistent arrival order (central
    sequencer, propagation tree) deliver on arrival; protocol-specific
    hosts override :meth:`handle` for more elaborate delivery rules.
    """

    def __init__(self, sim: Simulator, host: Host, fabric: "BaselineFabric"):
        super().__init__(sim, ("host", host.host_id))
        self.host = host
        self.fabric = fabric
        self.delivered: List[DeliveryRecord] = []

    def receive(self, payload: Any, channel: Channel) -> None:
        self.handle(payload)

    def handle(self, payload: Any) -> None:
        self.deliver(payload)

    def deliver(self, payload: Any) -> None:
        """Record a delivery; payload must quack like a delivery event."""
        record = DeliveryRecord(
            time=self.sim.now,
            stamp=payload.stamp,
            payload=payload.payload,
            msg_id=payload.msg_id,
            sender=payload.sender,
            publish_time=payload.publish_time,
        )
        self.delivered.append(record)
        self.fabric.trace.record(
            self.sim.now,
            "deliver",
            host=self.host.host_id,
            msg=record.msg_id,
            group=record.stamp.group,
            sender=record.sender,
            publish_time=record.publish_time,
        )


class BaselineFabric:
    """Base class: simulator + network + hosts + delivery records."""

    host_process_cls = BaselineHostProcess

    def __init__(
        self,
        membership: GroupMembership,
        hosts: List[Host],
        routing: RoutingTable,
        trace: bool = True,
    ):
        self.membership = membership
        self.hosts = hosts
        self.routing = routing
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.trace = Trace(enabled=trace)
        self._host_by_id = {h.host_id: h for h in hosts}
        self.host_processes: Dict[int, BaselineHostProcess] = {}
        for host in hosts:
            process = self.host_process_cls(self.sim, host, self)
            self.network.add_process(process)
            self.host_processes[host.host_id] = process
        self._next_msg_id = 0

    # -- plumbing shared by subclasses ------------------------------------

    def next_msg_id(self) -> int:
        """Allocate a fabric-unique message id."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        return msg_id

    def host_delay(self, a: int, b: int) -> float:
        """Host-to-host delay: access links plus shortest router path."""
        ha, hb = self._host_by_id[a], self._host_by_id[b]
        if a == b:
            return 2 * ha.access_delay
        return ha.access_delay + self.routing.delay(ha.router, hb.router) + hb.access_delay

    def channel_between(self, src: Process, dst: Process, delay: float) -> Channel:
        """Create-or-fetch a channel with an explicit delay."""
        try:
            return self.network.channel(src.name, dst.name)
        except KeyError:
            return self.network.connect(src.name, dst.name, max(delay, 0.01))

    # -- common public surface ---------------------------------------------

    def publish(self, sender: int, group: int, payload: Any = None) -> int:
        raise NotImplementedError

    def run(self, until: Optional[float] = None) -> int:
        """Drive the simulation to quiescence (or ``until``)."""
        return self.sim.run(until=until)

    def delivered(self, host_id: int) -> List[DeliveryRecord]:
        """Messages delivered to a host, in delivery order."""
        return list(self.host_processes[host_id].delivered)

    def unicast_delay(self, sender: int, dest: int) -> float:
        """Baseline shortest-path delay between two hosts."""
        return self.host_delay(sender, dest)
