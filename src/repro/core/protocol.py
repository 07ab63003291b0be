"""The ordering protocol core, runnable on any runtime backend.

This module wires the static artifacts — membership matrix, sequencing
graph, placement — into running processes implementing the paper's three
phases.  The processes depend only on the narrow runtime interface
(:mod:`repro.runtime.interfaces`): a node handle for clock + timers and a
transport for FIFO channels.  By default a fabric runs on the
discrete-event simulator (:class:`~repro.runtime.sim_backend.SimTransport`,
byte-identical to the pre-split behavior on fixed seeds); pass
``runtime=AsyncioTransport(...)`` to run the identical protocol live on
asyncio tasks (see :mod:`repro.runtime.asyncio_backend`).

The three phases:

* **ingress** — a publisher host sends its message to the sequencing node
  hosting the destination group's ingress atom;
* **sequencing** — the message walks the group's atom path; atoms
  associated with the group stamp it (group-local number at the ingress
  atom, overlap numbers at every atom of the group), pass-through atoms
  forward it in arrival order; consecutive co-located atoms are processed
  without a network hop;
* **distribution** — the last sequencing node sends the stamped message to
  every group member over shortest paths.

Channels between any two processes are FIFO (Section 3.1's assumption).
When loss injection is enabled, a reliable link layer recovers losses the
way a TCP connection between sequencers would: every packet on a hop
carries a per-hop sequence number, the sender keeps it in an output
retransmission buffer until acknowledged (Section 3.1's output buffer),
and the receiver holds back out-of-order arrivals so the upper protocol
still observes a FIFO channel.  Plain retransmission without hold-back
would reorder packets on a hop and break the FIFO assumption the
sequencing proof depends on.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids obs coupling
    from repro.obs.registry import MetricsRegistry

from repro.core.atoms import AtomRuntime, build_atom_runtimes
from repro.core.delivery import DeliveryState
from repro.core.delivery_log import DeliveryLog, DeliveryRecord, MessageHeader
from repro.core.messages import (
    ATOM_ENTRY_BYTES,
    HEADER_BYTES,
    AtomId,
    EpochFence,
    Message,
    Stamp,
)
from repro.core.placement import Placement, place
from repro.core.sequencing_graph import SequencingGraph
from repro.pubsub.membership import GroupMembership
from repro.runtime.errors import SimulationError
from repro.runtime.interfaces import Link, NodeHandle, RuntimeBackend
from repro.runtime.node import Process
from repro.runtime.sim_backend import SimTransport
from repro.runtime.trace import (
    ATOM_PASS,
    ATOM_SEQ,
    BUFFER,
    DELIVER,
    DISTRIBUTE,
    DRAIN,
    PUBLISH,
    Trace,
)
from repro.topology.clusters import Host
from repro.topology.gtitm import Topology
from repro.topology.routing import RoutingTable

#: Delay between two sequencing nodes co-resident on one router (local IPC).
LOCAL_HOP_DELAY = 0.01
#: Serialized size of an acknowledgment packet.
ACK_BYTES = 12
#: Give up after this many retransmissions of one packet (fabric default;
#: override per fabric with ``max_retransmits=``).
MAX_RETRANSMITS = 60
#: Exponential backoff stops doubling after this many attempts (the
#: timeout is capped at ``base * 2**RETRANSMIT_BACKOFF_CAP``).
RETRANSMIT_BACKOFF_CAP = 6
#: Maximum multiplicative jitter applied to a retransmit timeout (10%).
RETRANSMIT_JITTER = 0.1
#: Serialized size of a heartbeat ping/pong packet.
HEARTBEAT_BYTES = 8
#: ``DeliveryRecord(*fields)`` in one C call, without the generated
#: ``__new__``'s Python frame: one is built per delivery for ``on_deliver``
_new_record = tuple.__new__


def retransmit_jitter_fraction(seq: int, attempts: int) -> float:
    """Deterministic pseudo-jitter in ``[0, 1)`` for one (packet, attempt).

    Retransmission timers need jitter so synchronized losses do not
    re-collide, but drawing from an RNG would make timer ordering depend
    on unrelated draws.  A Knuth-style integer hash of the hop sequence
    number and attempt count is platform-stable and fully reproducible.
    """
    mixed = (seq * 2654435761 + attempts * 40503 + 12345) & 0xFFFFFFFF
    return (mixed % 10007) / 10007.0


# ---------------------------------------------------------------------------
# Packets
# ---------------------------------------------------------------------------
#
# One packet object exists per hop of every message, so the packet classes
# declare ``__slots__``.  (``dataclass(slots=True)`` needs Python 3.10; the
# package supports 3.9.)  The distribution phase has no packet class: every
# member is sent the message's one shared
# :class:`~repro.core.delivery_log.MessageHeader`.


@dataclass
class DataPacket:
    """A message in the sequencing phase, addressed to a specific atom."""

    __slots__ = ("message", "target_atom")

    message: Message
    #: the atom's number
    target_atom: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + ATOM_ENTRY_BYTES * len(self.message.atoms)


@dataclass
class StabilityAck:
    """Host -> egress node: "I delivered message ``msg_id`` to the app"."""

    __slots__ = ("msg_id", "host")

    msg_id: int
    host: int

    def size_bytes(self) -> int:
        return 8


@dataclass
class StableNotice:
    """Egress node -> members: every member has delivered ``msg_id``.

    The receiver-local deliverability decision already tells a host that
    *it* will never reorder the message (the paper's commit signal); a
    stable notice adds the uniform guarantee that every other member has
    delivered it too — what a replicated application needs before acting
    irrevocably on the message.
    """

    __slots__ = ("msg_id",)

    msg_id: int

    def size_bytes(self) -> int:
        return 8


@dataclass
class HopPacket:
    """Reliable-link envelope: a per-hop sequence number plus the payload.

    Hop sequence numbers let the receiver reconstruct the FIFO order of a
    lossy hop (hold-back of out-of-order arrivals) and deduplicate
    retransmissions.
    """

    __slots__ = ("seq", "inner")

    seq: int
    inner: Any

    def size_bytes(self) -> int:
        return 4 + self.inner.size_bytes()


@dataclass
class AckPacket:
    """Per-hop acknowledgment releasing a retransmission buffer entry."""

    __slots__ = ("seq",)

    seq: int

    def size_bytes(self) -> int:
        return ACK_BYTES


@dataclass
class HeartbeatPing:
    """Failure-detector probe sent to a sequencing node.

    Heartbeats deliberately bypass the reliable link layer: a
    retransmitted heartbeat would mask exactly the silence the detector
    exists to observe.  A node that is up answers with a
    :class:`HeartbeatPong`; a crashed node drops the ping on the floor.
    """

    __slots__ = ("seq",)

    seq: int

    def size_bytes(self) -> int:
        return HEARTBEAT_BYTES


@dataclass
class HeartbeatPong:
    """A sequencing node's liveness reply to a :class:`HeartbeatPing`."""

    __slots__ = ("seq", "node_id")

    seq: int
    node_id: int

    def size_bytes(self) -> int:
        return HEARTBEAT_BYTES


@dataclass(frozen=True)
class LinkFailure:
    """A packet abandoned after exhausting its retransmission budget.

    Surfaced as data (and via :attr:`OrderingFabric.on_link_failure`)
    instead of aborting the whole simulation: a chaos run wants to keep
    going and let the invariant checker attribute the consequences.
    """

    time: float
    src: Any
    dst: Any
    packet: Any
    attempts: int


@dataclass(frozen=True)
class FailoverRecord:
    """One live relocation of a sequencing node to a standby machine."""

    time: float
    node_id: int
    old_machine: int
    new_machine: int
    #: pending retransmission-buffer entries replayed at relocation time
    replayed: int


class _LinkState:
    """Sender- and receiver-side reliable-link state for one directed hop."""

    __slots__ = ("next_send_seq", "pending", "next_expected", "holdback")

    def __init__(self) -> None:
        self.next_send_seq = 0
        self.pending: Dict[int, Tuple[Any, int, Any]] = {}
        self.next_expected = 0
        self.holdback: Dict[int, Any] = {}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class HostProcess(Process):
    """A subscriber/publisher end host."""

    def __init__(
        self,
        node: NodeHandle,
        host: Host,
        fabric: "OrderingFabric",
        delivery: DeliveryState,
    ):
        super().__init__(node, ("host", host.host_id))
        self.host = host
        self.fabric = fabric
        self.delivery = delivery
        # Forensic records: every deliver-or-buffer decision that ends in
        # a buffer (see handle), and every buffer release, becomes a trace
        # record carrying the exact blocking (atom, expected_seq) gap.
        # The drain callback fires only on out-of-order arrivals and skips
        # all work while tracing is disabled, like ``atom_seq``.
        delivery.on_drain = self._record_drain
        #: msg_id -> virtual time it entered the hold-back buffer
        self._buffered_at: Dict[int, float] = {}
        self.delivered = DeliveryLog()
        #: messages known stable (delivered by every group member)
        self.stable_ids: Set[int] = set()
        self._crashed_until = 0.0
        self.crashes = 0

    def crash(self, duration: float) -> None:
        """Take the host offline for ``duration`` ms (fail-stop receiver).

        Like sequencing-node crashes, requires the reliable link layer:
        distribution packets dropped during downtime sit in the last
        sequencing node's retransmission buffer and redeliver afterwards.
        """
        if not self.fabric.reliable:
            raise SimulationError(
                "host crash/recovery needs the reliable link layer; "
                "construct the fabric with loss_rate > 0 or an explicit "
                "retransmit_timeout"
            )
        if duration <= 0:
            raise ValueError(f"crash duration must be positive, got {duration}")
        self.crashes += 1
        self._crashed_until = max(self._crashed_until, self.sim.now + duration)

    @property
    def is_down(self) -> bool:
        """Whether the host is currently refusing traffic."""
        return self.sim.now < self._crashed_until

    def receive(self, payload: Any, channel: Link) -> None:
        if self.sim.now < self._crashed_until:
            return
        fabric = self.fabric
        if not fabric.reliable:
            self.handle(payload)
            return
        for packet in fabric._link_receive(self, payload, channel):
            self.handle(packet)

    def handle(self, payload: Any) -> None:
        if not isinstance(payload, MessageHeader):
            if isinstance(payload, StableNotice):
                self.stable_ids.add(payload.msg_id)
                return
            raise TypeError(f"host got unexpected packet {payload!r}")
        fabric = self.fabric
        now = self.sim.now
        host_id = self.host.host_id
        track_stability = fabric.track_stability
        # What arrives, and waits in the hold-back, is the message's shared
        # header; on_receive returns (stamp, header) pairs in delivery
        # order, and a record is built only for a reader of this delivery.
        released = self.delivery.on_receive(payload.stamp, payload)
        if not released and fabric.trace.enabled:
            self._record_buffer(payload)
        for stamp, header in released:
            msg_id = header.msg_id
            if isinstance(header.payload, EpochFence):
                # Epoch fences advance the hold-back expectations like any
                # sequenced message but are consumed by the fabric: they
                # never reach the application log or stability tracking.
                fabric._fence_delivered(host_id, header.payload, msg_id)
                continue
            self.delivered.add(now, header)
            trace = fabric.trace
            if trace.enabled:
                trace.record(
                    now, DELIVER, host_id, msg_id, stamp.group, header.sender,
                    header.publish_time,
                )
            else:
                # One per delivery: counted (see the Trace contract) without
                # packing five values nobody will read.
                trace.record(now, "deliver")
            if fabric.on_deliver is not None:
                fabric.on_deliver(
                    host_id,
                    _new_record(
                        DeliveryRecord,
                        (now, stamp, header.payload, msg_id, header.sender,
                         header.publish_time),
                    ),
                )
            if track_stability:
                fabric._transmit(
                    self,
                    fabric._egress_of(stamp.group),
                    StabilityAck(msg_id, host_id),
                )

    def _record_buffer(self, header: MessageHeader) -> None:
        """Trace a deliver-or-buffer decision that buffered the arrival.

        Asked after the fact, and only while tracing: a buffered arrival
        moves no counter, so the gap named now is the one it tripped on.
        """
        blocking = self.delivery.blocking_of(header.stamp)
        assert blocking is not None
        self._buffered_at[header.msg_id] = self.sim.now
        self.fabric.trace.record(
            self.sim.now, BUFFER, self.host.host_id, header.msg_id,
            header.stamp.group, blocking.kind, blocking.key, blocking.have,
            blocking.expected,
        )

    def _record_drain(
        self, stamp: Stamp, payload: object, by_stamp: Stamp, by_payload: object
    ) -> None:
        """Trace a buffer release and the arrival that unblocked it."""
        if not self.fabric.trace.enabled:
            return
        assert isinstance(payload, MessageHeader)
        assert isinstance(by_payload, MessageHeader)
        buffered_at = self._buffered_at.pop(payload.msg_id, None)
        self.fabric.trace.record(
            self.sim.now, DRAIN, self.host.host_id, payload.msg_id, stamp.group,
            by_payload.msg_id,
            self.sim.now - buffered_at if buffered_at is not None else None,
        )


class SequencingNodeProcess(Process):
    """A machine hosting one sequencing node's co-located atoms.

    With a positive fabric ``service_time`` the node behaves as a single
    FIFO server: each message visit occupies the machine for
    ``service_time`` milliseconds and excess arrivals queue.  This models
    sequencer processing capacity for throughput experiments; the default
    (0) reproduces the paper's propagation-delay-only model.
    """

    def __init__(
        self,
        node: NodeHandle,
        node_id: int,
        machine: int,
        atom_runtimes: Dict[AtomId, AtomRuntime],
        fabric: "OrderingFabric",
    ):
        super().__init__(node, ("seq", node_id))
        self.node_id = node_id
        self.machine = machine
        #: the co-located atoms' runtimes by atom number, as packets and
        #: forwarding tables name them
        self._runtimes = {r.number: r for r in atom_runtimes.values()}
        self.fabric = fabric
        #: the fabric's per-visit processing time, fixed at construction
        self._service_time = fabric.service_time
        #: distinct messages this node handled (one per visit, however many
        #: co-located atoms the message is processed by during the visit)
        self.messages_handled = 0
        #: single-server FIFO queue state (service-time model)
        self._busy_until = 0.0
        self.queue_high_water = 0
        self._queued = 0
        #: fail-stop downtime: packets arriving before this instant are
        #: dropped on the floor (the reliable link layer recovers them)
        self._crashed_until = 0.0
        self.crashes = 0
        self.packets_dropped_while_down = 0
        #: stability tracking: msg_id -> members whose ack is outstanding
        self._stability_waiting: Dict[int, Set[int]] = {}
        self._stability_members: Dict[int, List[int]] = {}

    def crash(self, duration: float) -> None:
        """Take the node down for ``duration`` milliseconds (fail-stop).

        While down, the node ignores every arriving packet — neither
        processing nor acknowledging — so senders' retransmission buffers
        (Section 3.1) hold the traffic and redeliver after recovery.  Atom
        counters and link-layer state survive (they model durable
        sequencer state); only in-flight packets are lost.  Requires a
        reliable fabric (positive ``loss_rate`` or
        ``retransmit_timeout``): without retransmission, downtime would
        silently lose messages.
        """
        if not self.fabric.reliable:
            raise SimulationError(
                "crash/recovery needs the reliable link layer; construct "
                "the fabric with loss_rate > 0 (any tiny value) so "
                "retransmission can mask the downtime"
            )
        if duration <= 0:
            raise ValueError(f"crash duration must be positive, got {duration}")
        self.crashes += 1
        self._crashed_until = max(self._crashed_until, self.sim.now + duration)

    @property
    def is_down(self) -> bool:
        """Whether the node is currently refusing traffic."""
        return self.sim.now < self._crashed_until

    @property
    def atom_runtimes(self) -> Dict[AtomId, AtomRuntime]:
        """The co-located atoms' runtimes by atom (a copy)."""
        return {r.atom_id: r for r in self._runtimes.values()}

    def receive(self, payload: Any, channel: Link) -> None:
        if self.sim.now < self._crashed_until:
            self.packets_dropped_while_down += 1
            return
        fabric = self.fabric
        if isinstance(payload, HeartbeatPing):
            # Heartbeats bypass the reliable link layer in both directions
            # (see HeartbeatPing): answer immediately on the reverse path.
            reverse = fabric._channel(self, channel.src)
            reverse.send(
                HeartbeatPong(payload.seq, self.node_id), HEARTBEAT_BYTES
            )
            return
        if not fabric.reliable:
            self.handle(payload)
            return
        for packet in fabric._link_receive(self, payload, channel):
            self.handle(packet)

    def handle(self, payload: Any) -> None:
        if isinstance(payload, StabilityAck):
            self._collect_stability_ack(payload)
            return
        if not isinstance(payload, DataPacket):
            raise TypeError(f"sequencing node got unexpected packet {payload!r}")
        service = self._service_time
        if service <= 0:
            self.messages_handled += 1
            self.process_at(payload.target_atom, payload.message)
            return
        # Single FIFO server: completion at max(now, busy_until) + service.
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service
        self._queued += 1
        self.queue_high_water = max(self.queue_high_water, self._queued)
        self.sim.schedule_at(self._busy_until, self._complete_service, payload)

    def _collect_stability_ack(self, ack: StabilityAck) -> None:
        """Count member delivery acks; broadcast stability when complete."""
        waiting = self._stability_waiting.get(ack.msg_id)
        if waiting is None:
            return  # duplicate ack after stability was already declared
        waiting.discard(ack.host)
        if waiting:
            return
        del self._stability_waiting[ack.msg_id]
        for member in self._stability_members.pop(ack.msg_id):
            self.fabric._transmit(
                self, self.fabric.host_processes[member], StableNotice(ack.msg_id)
            )

    def expect_stability_acks(self, msg_id: int, members: Iterable[int]) -> None:
        """Arm stability tracking for one distributed message."""
        member_set = set(members)
        self._stability_waiting[msg_id] = set(member_set)
        self._stability_members[msg_id] = sorted(member_set)

    def _complete_service(self, payload: DataPacket) -> None:
        if self.is_down:
            # Accepted work pauses during downtime and resumes afterwards
            # (counters are durable; only the processor is unavailable).
            self.sim.schedule_at(self._crashed_until, self._complete_service, payload)
            return
        self._queued -= 1
        self.messages_handled += 1
        self.process_at(payload.target_atom, payload.message)

    def process_at(self, atom: int, message: Message) -> None:
        """Run the message through co-located atoms, from the one numbered
        ``atom``, until it leaves."""
        runtimes = self._runtimes
        runtime = runtimes.get(atom)
        if runtime is None:
            raise SimulationError(
                f"atom {AtomId.by_number(atom)} routed to node {self.node_id} "
                "but not hosted"
            )
        trace = self.fabric.trace
        while True:
            if trace.enabled:
                next_atom = self._process_traced(runtime, message)
            else:
                next_atom = runtime.process(message)
            if next_atom is None:
                self.fabric._distribute(self, message)
                return
            runtime = runtimes.get(next_atom)
            if runtime is None:
                self.fabric._send_data(self, next_atom, message)
                return

    def _process_traced(self, runtime: AtomRuntime, message: Message) -> Optional[int]:
        """One atom visit plus its forensic record (tracing-enabled path).

        Emits ``atom_seq`` when the visit assigned any sequence number —
        an overlap number (``seq``), the group-local number at ingress
        (``group_seq``), or both — and ``atom_pass`` for a pure
        pass-through in arrival order.
        """
        group_seq_before = message.group_seq
        stamped_before = len(message.seqs)
        next_atom = runtime.process(message)
        seqs = message.seqs
        seq = seqs[-1] if len(seqs) > stamped_before else None
        group_seq = message.group_seq if group_seq_before is None else None
        if seq is None and group_seq is None:
            self.fabric.trace.record(
                self.sim.now, ATOM_PASS, message.msg_id, self.node_id,
                runtime.atom_id.label,
            )
        else:
            self.fabric.trace.record(
                self.sim.now, ATOM_SEQ, message.msg_id, self.node_id,
                runtime.atom_id.label, seq, group_seq,
            )
        return next_atom


# ---------------------------------------------------------------------------
# The fabric
# ---------------------------------------------------------------------------


class OrderingFabric:
    """Everything needed to run the ordering protocol in simulation.

    Parameters
    ----------
    membership:
        The group membership matrix (static for the lifetime of a fabric;
        rebuild the fabric after membership changes, or use
        :class:`repro.core.api.OrderedPubSub` which does so lazily).
    hosts:
        End hosts attached to the topology.
    topology, routing:
        The router underlay and its shortest-path oracle.
    seed:
        Seed for graph ordering and placement tie-breaking.
    loss_rate:
        Per-packet Bernoulli loss probability (0 disables loss; the paper's
        evaluation model).  Any positive value enables per-hop acks and
        retransmission.
    optimize:
        Chain-ordering mode for the sequencing graph.
    placement:
        Optional pre-computed placement (for ablations); computed with the
        Section 3.4 heuristic when omitted.
    graph:
        Optional pre-built sequencing graph (for ablations).
    trace:
        Record publish/deliver events (on by default; disable for speed),
        or the :class:`~repro.runtime.trace.Trace` to record into — e.g. a
        bounded ring, as the long-lived :class:`~repro.core.api.
        OrderedPubSub` bus passes.
    service_time:
        Per-message processing time at sequencing nodes, in milliseconds;
        positive values turn each node into a single FIFO server so
        throughput saturation can be studied (0 = the paper's model).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        the fabric wires live hold-back occupancy gauges, a delivery
        latency histogram, and pull collectors for link/node/atom/event
        loop statistics (see :mod:`repro.obs.hooks`).
    max_retransmits:
        Per-packet retransmission budget before the packet is abandoned
        and a :class:`LinkFailure` surfaced (default
        :data:`MAX_RETRANSMITS`).
    runtime:
        Optional :class:`~repro.runtime.interfaces.RuntimeBackend`.  By
        default the fabric builds a
        :class:`~repro.runtime.sim_backend.SimTransport` from ``seed`` and
        ``loss_rate`` (byte-identical to the pre-split behavior).  Pass an
        :class:`~repro.runtime.asyncio_backend.AsyncioTransport` to run the
        same protocol live.  When an explicit runtime is given and the
        fabric's ``loss_rate`` is 0, the runtime's loss rate is adopted so
        the reliable link layer arms itself consistently with what the
        transport actually drops; the transport's own channels always
        apply the loss rate *they* were built with.
    """

    def __init__(
        self,
        membership: GroupMembership,
        hosts: List[Host],
        topology: Topology,
        routing: RoutingTable,
        seed: int = 0,
        loss_rate: float = 0.0,
        optimize: str = "greedy",
        placement: Optional[Placement] = None,
        graph: Optional[SequencingGraph] = None,
        trace: Union[bool, Trace] = True,
        retransmit_timeout: Optional[float] = None,
        service_time: float = 0.0,
        track_stability: bool = False,
        registry: Optional["MetricsRegistry"] = None,
        max_retransmits: Optional[int] = None,
        runtime: Optional[RuntimeBackend] = None,
    ):
        import random as _random

        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        if runtime is None:
            runtime = SimTransport(seed=seed, loss_rate=loss_rate)
        elif loss_rate == 0.0:
            # An explicit runtime carries its own loss configuration; adopt
            # it so the reliable link layer arms when the wire can drop.
            loss_rate = runtime.loss_rate
        #: uniform-delivery tracking: members ack deliveries to the egress
        #: node, which broadcasts a StableNotice once everyone delivered
        self.track_stability = track_stability
        self.membership = membership
        self.hosts = hosts
        self.topology = topology
        self.routing = routing
        self.loss_rate = loss_rate
        #: the reliable link layer runs when loss is possible, or when a
        #: retransmit timeout is requested explicitly (e.g. for the
        #: crash/recovery model on otherwise loss-free links)
        self.reliable = loss_rate > 0 or retransmit_timeout is not None
        self.retransmit_timeout = retransmit_timeout
        #: per-message-visit processing time at sequencing nodes (ms);
        #: 0 = the paper's propagation-delay-only model
        self.service_time = service_time
        #: the runtime backend executing this fabric (sim by default)
        self.runtime = runtime
        #: the node handle shared by every process — under the simulated
        #: backend this is the Simulator itself, hot path unchanged
        self.sim = runtime.scheduler
        self._rng = _random.Random(seed)
        self.network = runtime.transport
        self.trace = trace if isinstance(trace, Trace) else Trace(enabled=trace)
        runtime.attach_trace(self.trace)
        #: optional application callback invoked on every delivery
        self.on_deliver: Optional[Callable[[int, DeliveryRecord], None]] = None

        snapshot = membership.snapshot()
        self.graph = graph if graph is not None else SequencingGraph.build(
            snapshot, rng=_random.Random(seed + 2), optimize=optimize
        )
        self.graph.validate()
        host_router = {h.host_id: h.router for h in hosts}
        self._host_by_id = {h.host_id: h for h in hosts}
        self.placement = (
            placement
            if placement is not None
            else place(
                self.graph, host_router, topology, routing, rng=_random.Random(seed + 3)
            )
        )

        # Processes: one per host, one per sequencing node.
        runtimes = build_atom_runtimes(self.graph)
        self.host_processes: Dict[int, HostProcess] = {}
        for host in hosts:
            delivery = DeliveryState(
                host.host_id,
                membership.groups_of(host.host_id),
                self.graph.relevant_atoms_of(host.host_id),
            )
            process = HostProcess(self.sim, host, self, delivery)
            self.network.add_process(process)
            self.host_processes[host.host_id] = process
        self.node_processes: Dict[int, SequencingNodeProcess] = {}
        #: atom number -> the process of the node hosting it
        self._host_of_atom: Dict[int, SequencingNodeProcess] = {}
        for node in self.placement.nodes:
            node_runtimes = {a: runtimes[a] for a in node.atom_ids}
            assert node.machine is not None, "place() assigns every machine"
            process = SequencingNodeProcess(
                self.sim, node.node_id, node.machine, node_runtimes, self
            )
            self.network.add_process(process)
            self.node_processes[node.node_id] = process
            self._host_of_atom.update(dict.fromkeys(process._runtimes, process))

        # Per-group facts of the epoch's (frozen) sequencing graph, looked
        # up on every publish and every distribution; filled on first use.
        self._ingress: Dict[int, Tuple[int, SequencingNodeProcess]] = {}
        self._egress: Dict[int, SequencingNodeProcess] = {}
        self._members: Dict[int, Tuple[int, ...]] = {}

        self._next_msg_id = 0
        self._links: Dict[Tuple[Any, Any], _LinkState] = {}
        self.published: Dict[int, Message] = {}
        #: epoch index of this fabric (bumped by reconfigure())
        self.epoch = 0
        #: epoch-fence markers in flight or delivered, by message id —
        #: kept out of ``published`` so RT3xx audits the application
        #: traffic only (see repro.core.reconfigure)
        self.fences: Dict[int, Message] = {}
        #: group -> members that must deliver the group's fence
        self.fence_expected: Dict[int, "frozenset[int]"] = {}
        #: group -> {host -> virtual delivery time} for the group's fence
        self.fence_delivered: Dict[int, Dict[int, float]] = {}
        #: filled by reconfigure() with the outgoing switch's statistics
        self.epoch_switch_stats: Optional[Dict[str, Any]] = None
        #: distribution-phase accounting (see _account_distribution):
        #: (machine, group) -> (link_count, unicast_link_count) of its tree
        self._tree_counts: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.distribution_tree_links = 0
        self.distribution_unicast_links = 0
        self.distribution_tree_bytes = 0
        #: reliable-link layer accounting
        self.retransmissions = 0
        self.acks_sent = 0
        #: per-packet retransmission budget before declaring link failure
        self.max_retransmits = (
            max_retransmits if max_retransmits is not None else MAX_RETRANSMITS
        )
        #: retransmissions attributed to why the previous copy vanished
        #: ("loss" | "outage" | "peer_down" | "failover_replay")
        self.retransmissions_by_cause: Dict[str, int] = {}
        #: retransmission attempts per directed link (src name, dst name)
        self.retransmits_by_link: Dict[Tuple[Any, Any], int] = {}
        #: packets abandoned after exhausting the retransmit budget
        self.link_failures: List[LinkFailure] = []
        #: optional application callback invoked on every link failure
        self.on_link_failure: Optional[Callable[[LinkFailure], None]] = None
        #: live sequencing-node relocations (see relocate_node)
        self.failovers: List[FailoverRecord] = []
        #: optional metrics registry (see repro.obs); instrumented lazily
        #: so fabrics without one never import the observability layer
        self.registry = registry
        if registry is not None:
            from repro.obs.hooks import instrument_fabric

            instrument_fabric(self, registry)

    # -- channel management ------------------------------------------------

    def _channel(self, src: Process, dst: Process) -> Link:
        try:
            return self.network.channel(src.name, dst.name)
        except KeyError:
            return self.network.connect(src.name, dst.name, self._delay(src, dst))

    def _process_router(self, process: Process) -> int:
        if isinstance(process, HostProcess):
            return process.host.router
        return process.machine

    def _delay(self, src: Process, dst: Process) -> float:
        delay = self.routing.delay(self._process_router(src), self._process_router(dst))
        if isinstance(src, HostProcess):
            delay += src.host.access_delay
        if isinstance(dst, HostProcess):
            delay += dst.host.access_delay
        return max(delay, LOCAL_HOP_DELAY)

    # -- reliable link layer -------------------------------------------------

    def _link(self, src_name: Any, dst_name: Any) -> _LinkState:
        key = (src_name, dst_name)
        state = self._links.get(key)
        if state is None:
            state = _LinkState()
            self._links[key] = state
        return state

    def _transmit(self, src: Process, dst: Process, packet: Any) -> None:
        channel = self._channel(src, dst)
        if not self.reliable:
            channel.send(packet, packet.size_bytes())
            return
        link = self._link(src.name, dst.name)
        hop = HopPacket(link.next_send_seq, packet)
        link.next_send_seq += 1
        channel.send(hop, hop.size_bytes())
        self._arm_retransmit(src, dst, hop, attempts=0)

    def _retransmit_timeout(
        self, src: Process, dst: Process, hop: HopPacket, attempts: int
    ) -> float:
        """Backed-off, jittered timeout before retransmitting ``hop``.

        Exponential backoff (doubling per attempt, capped at
        ``2**RETRANSMIT_BACKOFF_CAP`` times the base) keeps a dead or
        partitioned peer from being hammered at a fixed rate, and the
        deterministic per-packet jitter de-synchronizes retransmissions
        that were dropped together (e.g. by one outage window).
        """
        base = self.retransmit_timeout
        if base is None:
            base = 4 * self._channel(src, dst).delay + 1.0
        backoff = 2.0 ** min(attempts, RETRANSMIT_BACKOFF_CAP)
        jitter = 1.0 + RETRANSMIT_JITTER * retransmit_jitter_fraction(
            hop.seq, attempts
        )
        return base * backoff * jitter

    def _arm_retransmit(
        self, src: Process, dst: Process, hop: HopPacket, attempts: int
    ) -> None:
        link = self._link(src.name, dst.name)
        timeout = self._retransmit_timeout(src, dst, hop, attempts)
        handle = self.sim.schedule(timeout, self._retransmit, src, dst, hop, attempts)
        link.pending[hop.seq] = (handle, attempts, hop)

    def _retransmit_cause(self, dst: Process, channel: Link) -> str:
        """Attribute a retransmission to why the previous copy vanished."""
        if channel.is_down:
            return "outage"
        if getattr(dst, "is_down", False):
            return "peer_down"
        return "loss"

    def _count_retransmission(
        self, src: Process, dst: Process, cause: str
    ) -> None:
        self.retransmissions += 1
        self.retransmissions_by_cause[cause] = (
            self.retransmissions_by_cause.get(cause, 0) + 1
        )
        key = (src.name, dst.name)
        self.retransmits_by_link[key] = self.retransmits_by_link.get(key, 0) + 1
        if self.trace.enabled:
            # Guarded like atom_seq: retransmissions can be high-volume
            # under chaos, and the forensics joins need the per-event
            # (time, link, cause) stream, not just the counters.
            self.trace.record(
                self.sim.now,
                "retransmit",
                src=repr(src.name),
                dst=repr(dst.name),
                cause=cause,
            )

    def _retransmit(
        self, src: Process, dst: Process, hop: HopPacket, attempts: int
    ) -> None:
        link = self._link(src.name, dst.name)
        if hop.seq not in link.pending:
            return
        if attempts + 1 > self.max_retransmits:
            self._give_up(src, dst, hop, attempts)
            return
        channel = self._channel(src, dst)
        self._count_retransmission(src, dst, self._retransmit_cause(dst, channel))
        channel.send(hop, hop.size_bytes())
        self._arm_retransmit(src, dst, hop, attempts + 1)

    def _give_up(
        self, src: Process, dst: Process, hop: HopPacket, attempts: int
    ) -> None:
        """Abandon a packet whose retransmit budget is exhausted.

        The packet leaves the output retransmission buffer and a
        :class:`LinkFailure` is recorded (and surfaced via
        ``on_link_failure``) instead of raising: the simulation keeps
        running so a chaos campaign can observe the consequences, and the
        runtime invariant checker attributes any resulting delivery gap.
        """
        link = self._link(src.name, dst.name)
        link.pending.pop(hop.seq, None)
        failure = LinkFailure(
            time=self.sim.now,
            src=src.name,
            dst=dst.name,
            packet=hop.inner,
            attempts=attempts,
        )
        self.link_failures.append(failure)
        if self.trace.enabled:
            self.trace.record(
                self.sim.now,
                "link_failure",
                src=repr(src.name),
                dst=repr(dst.name),
                attempts=attempts,
            )
        if self.on_link_failure is not None:
            self.on_link_failure(failure)

    def _link_receive(
        self, receiver: Process, payload: Any, channel: Link
    ) -> List[Any]:
        """Reliable-link input processing; returns in-order upper packets.

        In unreliable mode the payload passes straight through.  Otherwise
        acknowledgments release the sender's retransmission buffer, and hop
        packets are acknowledged, deduplicated, and released to the caller
        strictly in hop-sequence order (out-of-order arrivals are held
        back), so the protocol above always sees a FIFO channel.
        """
        if not self.reliable:
            return [payload]  # receivers skip this call when the layer is off
        sender_name = channel.src.name
        if isinstance(payload, AckPacket):
            link = self._link(receiver.name, sender_name)
            entry = link.pending.pop(payload.seq, None)
            if entry is not None:
                entry[0].cancel()
            return []
        if not isinstance(payload, HopPacket):
            raise TypeError(f"expected HopPacket on reliable link, got {payload!r}")
        reverse = self._channel(receiver, channel.src)
        reverse.send(AckPacket(payload.seq), ACK_BYTES)
        self.acks_sent += 1
        link = self._link(sender_name, receiver.name)
        if payload.seq < link.next_expected or payload.seq in link.holdback:
            return []  # duplicate of an already-queued or processed packet
        link.holdback[payload.seq] = payload.inner
        released: List[Any] = []
        while link.next_expected in link.holdback:
            released.append(link.holdback.pop(link.next_expected))
            link.next_expected += 1
        return released

    # -- live failover -------------------------------------------------------

    def relocate_node(
        self,
        node_id: int,
        machine: int,
        transfer_delay: float = 0.0,
    ) -> FailoverRecord:
        """Move a sequencing node's atoms to a standby ``machine``, live.

        This is the fail-over primitive: unlike
        :func:`repro.core.reconfigure.reconfigure` it does **not** require
        a quiescent fabric.  The relocation models a standby adopting the
        node's replicated durable state (Section 3.1's counters and
        buffers):

        * every atom runtime (overlap counters, group-local counters,
          forwarding tables) moves wholesale — sequence spaces continue;
        * reliable-link state is keyed by the node's *name*, which is
          preserved, so output retransmission buffers, input hold-back
          buffers, and hop sequence numbers all survive the move —
          receivers keep deduplicating replayed packets exactly as before;
        * channels touching the node are retired and lazily re-created
          with delays for the new machine, re-routing every path through
          the node;
        * pending entries in retransmission buffers to/from the node are
          replayed immediately (with a fresh attempt budget for the new
          incarnation) instead of waiting out their backed-off timers.

        ``transfer_delay`` keeps the new incarnation unavailable for that
        many milliseconds (state-transfer cost); packets arriving during
        the hand-off are dropped and recovered by retransmission.
        """
        if not self.reliable:
            raise SimulationError(
                "failover needs the reliable link layer; construct the "
                "fabric with loss_rate > 0 or an explicit retransmit_timeout"
            )
        if transfer_delay < 0:
            raise ValueError(
                f"transfer_delay must be >= 0, got {transfer_delay}"
            )
        process = self.node_processes[node_id]
        old_machine = process.machine
        self.network.retire_channels(process.name)
        process.machine = machine
        for node in self.placement.nodes:
            if node.node_id == node_id:
                node.machine = machine
        # The new incarnation goes live after the state-transfer window —
        # this also clears any crash window (including a permanent one).
        process._crashed_until = self.sim.now + transfer_delay
        replayed = self._replay_pending(process.name)
        record = FailoverRecord(
            time=self.sim.now,
            node_id=node_id,
            old_machine=old_machine,
            new_machine=machine,
            replayed=replayed,
        )
        self.failovers.append(record)
        if self.trace.enabled:
            self.trace.record(
                self.sim.now,
                "failover",
                node=node_id,
                old_machine=old_machine,
                new_machine=machine,
                replayed=replayed,
            )
        return record

    def _replay_pending(self, name: Any) -> int:
        """Replay retransmission-buffer entries touching process ``name``.

        Called at failover time: upstream senders' pending packets toward
        the moved node, and the moved node's own unacknowledged output,
        are re-sent immediately over the re-routed channels.  Attempt
        counters restart — the budget is per incarnation.
        """
        replayed = 0
        for (src_name, dst_name), link in self._links.items():
            if name != src_name and name != dst_name:
                continue
            if not link.pending:
                continue
            src = self.network.process(src_name)
            dst = self.network.process(dst_name)
            channel = self._channel(src, dst)
            for seq in sorted(link.pending):
                handle, _attempts, hop = link.pending[seq]
                handle.cancel()
                self._count_retransmission(src, dst, "failover_replay")
                channel.send(hop, hop.size_bytes())
                self._arm_retransmit(src, dst, hop, attempts=0)
                replayed += 1
        return replayed

    # -- protocol phases ---------------------------------------------------

    def publish(self, sender: int, group: int, payload: Any = None) -> int:
        """Inject a message from ``sender`` to ``group``; returns its id.

        The ingress hop is scheduled immediately at current virtual time.
        For a *causal* order the sender must subscribe to ``group``
        (Section 3.1); this is the caller's choice and not enforced here.
        """
        if not self.membership.has_group(group):
            raise KeyError(f"no such group {group}")
        now = self.sim.now
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        message = Message(msg_id, group, sender, payload, now)
        self.published[msg_id] = message
        self.trace.record(now, PUBLISH, msg_id, group, sender)
        ingress, node = self._ingress_of(group)
        self._transmit(
            self.host_processes[sender], node, DataPacket(message, ingress)
        )
        return msg_id

    def _ingress_of(self, group: int) -> Tuple[int, SequencingNodeProcess]:
        """The number of the group's ingress atom and the process of the
        node hosting it."""
        route = self._ingress.get(group)
        if route is None:
            ingress = self.graph.ingress_atom(group).number
            route = self._ingress[group] = (ingress, self._host_of_atom[ingress])
        return route

    def _egress_of(self, group: int) -> SequencingNodeProcess:
        """The process of the node hosting the group's last path atom: the
        one that distributes the group's messages and collects their
        stability acks (``relocate_node`` moves it, keeping the process)."""
        node = self._egress.get(group)
        if node is None:
            last = self.graph.group_path(group)[-1].number
            node = self._egress[group] = self._host_of_atom[last]
        return node

    def _members_of(self, group: int) -> Tuple[int, ...]:
        """The epoch's members of ``group``, sorted (distribution order)."""
        members = self._members.get(group)
        if members is None:
            members = self._members[group] = tuple(
                sorted(self.graph.members(group))
            )
        return members

    # -- epoch fences (online reconfiguration) ------------------------------

    def inject_epoch_fences(self, epoch: int) -> Dict[int, int]:
        """Publish one :class:`EpochFence` through every group's path.

        Returns ``{group: fence msg_id}``.  Fences take ordinary sequence
        numbers and travel the normal sequencing path, but are registered
        in :attr:`fences` instead of :attr:`published` and are consumed
        at the receiver (never handed to the application).  Once every
        expected member has delivered its group's fence, every message
        the old epoch sequenced has been delivered too — the safe point
        for an online cutover (see :mod:`repro.core.reconfigure`).
        """
        return {
            group: self._publish_fence(group, epoch)
            for group in sorted(self.graph.groups())
        }

    def _publish_fence(self, group: int, epoch: int) -> int:
        members = self._members_of(group)
        sender = members[0]
        message = Message(
            msg_id=self._next_msg_id,
            group=group,
            sender=sender,
            payload=EpochFence(epoch=epoch, group=group),
            publish_time=self.sim.now,
        )
        self._next_msg_id += 1
        self.fences[message.msg_id] = message
        self.fence_expected[group] = frozenset(members)
        self.fence_delivered.setdefault(group, {})
        self.trace.record(
            self.sim.now,
            "epoch_fence",
            phase="publish",
            msg=message.msg_id,
            group=group,
            epoch=epoch,
            sender=sender,
        )
        ingress, node = self._ingress_of(group)
        self._transmit(
            self.host_processes[sender], node, DataPacket(message, ingress)
        )
        return message.msg_id

    def _fence_delivered(
        self, host_id: int, fence: EpochFence, msg_id: int
    ) -> None:
        """Consume an epoch fence at a receiver (not an app delivery)."""
        self.fence_delivered.setdefault(fence.group, {}).setdefault(
            host_id, self.sim.now
        )
        self.trace.record(
            self.sim.now,
            "epoch_fence",
            phase="deliver",
            msg=msg_id,
            group=fence.group,
            epoch=fence.epoch,
            host=host_id,
        )

    def fences_outstanding(self) -> Dict[int, List[int]]:
        """Members that have not yet delivered their group's fence."""
        outstanding: Dict[int, List[int]] = {}
        for group in sorted(self.fence_expected):
            delivered = self.fence_delivered.get(group, {})
            missing = sorted(self.fence_expected[group] - delivered.keys())
            if missing:
                outstanding[group] = missing
        return outstanding

    def _send_data(
        self, src: SequencingNodeProcess, target_atom: int, message: Message
    ) -> None:
        dst = self._host_of_atom[target_atom]
        if dst is src:
            raise SimulationError(
                f"atom {AtomId.by_number(target_atom)} is co-located with "
                "sender; should have been processed inline"
            )
        self._transmit(src, dst, DataPacket(message, target_atom))

    def _distribute(self, src: SequencingNodeProcess, message: Message) -> None:
        stamp = message.stamp()
        # Fan out to the *epoch's* member set (the sequencing graph), not
        # the live membership matrix: during an online reconfiguration the
        # matrix may already describe the next epoch while this epoch's
        # traffic is still draining.  While the membership is unchanged the
        # two sets are identical.
        members = self._members_of(message.group)
        if self.trace.enabled:
            self.trace.record(
                self.sim.now, DISTRIBUTE, message.msg_id, src.node_id, len(members)
            )
        if self.track_stability and not isinstance(message.payload, EpochFence):
            src.expect_stability_acks(message.msg_id, members)
        # One header per message, and it is what every member is sent: the
        # destination is the channel's, and the stability ack target is
        # the group's egress node (see _egress_of).  What the members'
        # hold-backs and delivery logs keep is a reference to this object.
        header = MessageHeader(
            stamp, message.payload, message.msg_id, message.sender,
            message.publish_time,
        )
        hosts = self.host_processes
        for member in members:
            # _transmit is looked up per packet: the checker's mutation
            # harness patches it on the instance.
            self._transmit(src, hosts[member], header)
        self._account_distribution(src, message.group, stamp.size_bytes())

    def _account_distribution(
        self, src: SequencingNodeProcess, group: int, size_bytes: int
    ) -> None:
        """Record delivery-tree link usage for the distribution phase.

        The paper hands messages leaving the sequencing network "to a
        delivery tree and on to group members".  Per-member arrival times
        equal shortest-path unicast either way (the tree is the union of
        shortest paths), so the simulation sends unicast copies; this
        accounting tracks what a shared delivery tree would put on each
        link, for the multicast-efficiency metrics.  Only the tree's two
        link counts are kept, not its edge set.
        """
        key = (src.machine, group)
        counts = self._tree_counts.get(key)
        if counts is None:
            from repro.pubsub.multicast import DeliveryTree

            members = [
                self._host_by_id[m].router for m in self.graph.members(group)
            ]
            tree = DeliveryTree(self.routing, src.machine, members)
            counts = (tree.link_count(), tree.unicast_link_count())
            self._tree_counts[key] = counts
        links, unicast_links = counts
        self.distribution_tree_links += links
        self.distribution_unicast_links += unicast_links
        self.distribution_tree_bytes += links * size_bytes

    # -- running and inspecting ---------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drive the runtime backend; returns callbacks executed.

        Blocking on every backend that owns its event source (the
        simulator, or an :class:`AsyncioTransport` with an owned loop).
        A hosted asyncio backend raises
        :class:`~repro.runtime.errors.RuntimeUnavailable` here — drive it
        with ``await fabric.runtime.wait_quiescent(...)`` instead.
        """
        return self.runtime.run(until=until, max_events=max_events)

    def delivered(self, host_id: int) -> List[DeliveryRecord]:
        """Messages delivered to a host, in delivery order (records built
        for this call; read ``host_processes[host_id].delivered`` columns
        where one per delivery is too many)."""
        return list(self.host_processes[host_id].delivered)

    def pending_messages(self) -> Dict[int, int]:
        """Hosts with messages still buffered (should be empty after run)."""
        return {
            host_id: process.delivery.pending
            for host_id, process in self.host_processes.items()
            if process.delivery.pending
        }

    def export_certificate(self) -> Dict:
        """Graph + placement certificate, extended with live channel state.

        Beyond :meth:`SequencingGraph.export_certificate`, the fabric
        adds a ``channels`` section recording the transport's live and
        retired directed edges (process names rendered with ``repr``)
        plus the retirement counter, so
        :mod:`repro.check.graph_verify`'s GV206 can prove that no edge
        retired by a failover still appears live.
        """
        certificate = self.graph.export_certificate(placement=self.placement)
        retired = getattr(self.network, "retired_edges", set())
        certificate["channels"] = {
            "retired_count": self.network.channels_retired,
            "live": sorted(
                [repr(src), repr(dst)] for src, dst in self.network.channels
            ),
            "retired": sorted([repr(src), repr(dst)] for src, dst in retired),
        }
        return certificate

    def unicast_delay(self, sender: int, dest: int) -> float:
        """Baseline shortest-path delay between two hosts."""
        a = self._host_by_id[sender]
        b = self._host_by_id[dest]
        if sender == dest:
            return 2 * a.access_delay
        return a.access_delay + self.routing.delay(a.router, b.router) + b.access_delay

    def stable_messages(self, host_id: int) -> set:
        """Messages ``host_id`` knows are delivered at every group member.

        Requires ``track_stability=True``; stability notices propagate a
        round-trip after the last member's delivery, so run the simulation
        to quiescence before checking.
        """
        return set(self.host_processes[host_id].stable_ids)

    def atom_work(self) -> Dict[str, int]:
        """Aggregate per-atom stamping work across every sequencing node.

        Deterministic per seed (pure visit counts), so ``bench/`` reports
        it as the ``core.atoms`` counts: total atom visits, stamps issued,
        and pass-through forwards.
        """
        visits = stamps = passes = 0
        for process in self.node_processes.values():
            for runtime in process.atom_runtimes.values():
                visits += runtime.visits
                stamps += runtime.messages_sequenced
                passes += runtime.messages_passed_through
        return {"visits": visits, "stamps": stamps, "pass_through": passes}

    def sequencing_load(self) -> Dict[int, int]:
        """Distinct message visits per sequencing node.

        A message processed by several co-located atoms during one visit
        counts once — this is the machine-level load figure the paper's
        scalability argument is about.  Per-atom work counts live on the
        atom runtimes (``messages_sequenced``/``messages_passed_through``).
        """
        return {
            node_id: process.messages_handled
            for node_id, process in self.node_processes.items()
        }
