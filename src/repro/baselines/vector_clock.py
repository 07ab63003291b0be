"""Vector-timestamp causal multicast baseline (symmetric approach).

ISIS-style CBCAST with **per-group vector clocks**: every group ``g``
carries a vector over its members; each member keeps one clock per
subscribed group.  A message from sender ``s`` to group ``g`` carries
``VT(m)`` (g's vector at the sender after incrementing its own entry), and
a receiver delivers when

* ``VT(m)[s] == VC_g[s] + 1``  (next message from that sender in g), and
* ``VT(m)[k] <= VC_g[k]`` for all other members ``k``.

Messages travel directly from publisher to subscribers on shortest paths —
fully decentralized, no sequencers — but each message carries a vector
whose size is **proportional to the group size**, and a system-wide causal
order would need a vector over all nodes.  This is exactly the overhead
the paper contrasts with its per-group stamps (Sections 2 and 4.4: "the
additional information we append to each message does not depend on the
size of the destination group", and the approach beats "system-wide vector
timestamps" whenever nodes outnumber groups).

Semantics versus the paper's protocol: delivery here is *causal within
each group* but gives no cross-group consistency — two receivers sharing
two groups may deliver concurrent messages to those groups in different
orders.  The ordering-consistency benchmark quantifies how often that
happens; it is the anomaly sequencing atoms exist to prevent.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.baselines.common import BaselineFabric, BaselineHostProcess
from repro.core.messages import HEADER_BYTES, VECTOR_ENTRY_BYTES, Stamp
from repro.pubsub.membership import GroupMembership


@dataclass
class _VcMessage:
    stamp: Stamp
    payload: Any
    msg_id: int
    sender: int
    publish_time: float
    #: the destination group's vector clock at send time: member -> count
    vector: Tuple[Tuple[int, int], ...]

    def size_bytes(self) -> int:
        return HEADER_BYTES + VECTOR_ENTRY_BYTES * len(self.vector)


class _VcHostProcess(BaselineHostProcess):
    """Host with per-group vector clocks and a causal hold-back queue."""

    def __init__(self, sim, host, fabric):
        super().__init__(sim, host, fabric)
        #: group -> {member -> delivered-count}
        self.clocks: Dict[int, Dict[int, int]] = {}
        self._holdback: List[_VcMessage] = []

    def init_group(self, group: int, members) -> None:
        self.clocks[group] = {member: 0 for member in sorted(members)}

    def _deliverable(self, msg: _VcMessage) -> bool:
        clock = self.clocks[msg.stamp.group]
        for member, count in msg.vector:
            if member == msg.sender:
                if count != clock[member] + 1:
                    return False
            elif count > clock[member]:
                return False
        return True

    def handle(self, payload: Any) -> None:
        self._holdback.append(payload)
        progress = True
        while progress:
            progress = False
            for index, msg in enumerate(self._holdback):
                if self._deliverable(msg):
                    del self._holdback[index]
                    clock = self.clocks[msg.stamp.group]
                    for member, count in msg.vector:
                        clock[member] = max(clock[member], count)
                    self.deliver(msg)
                    progress = True
                    break

    @property
    def pending(self) -> int:
        return len(self._holdback)


class VectorClockFabric(BaselineFabric):
    """Causal multicast with per-group vector timestamps."""

    host_process_cls = _VcHostProcess

    def __init__(
        self,
        membership: GroupMembership,
        hosts,
        routing,
        trace: bool = True,
    ):
        super().__init__(membership, hosts, routing, trace=trace)
        for group in membership.groups():
            for member in membership.members(group):
                self.host_processes[member].init_group(
                    group, membership.members(group)
                )
        #: per-sender send counters per group (the sender-side clock entry)
        self._sent: Dict[Tuple[int, int], int] = {}

    def publish(self, sender: int, group: int, payload: Any = None) -> int:
        """Multicast to the group with its incremented vector timestamp."""
        if sender not in self.membership.members(group):
            raise ValueError(
                "causal multicast requires the sender to be a group member "
                f"(host {sender}, group {group})"
            )
        src = self.host_processes[sender]
        clock = dict(src.clocks[group])
        clock[sender] = self._sent.get((sender, group), 0) + 1
        self._sent[(sender, group)] = clock[sender]
        msg = _VcMessage(
            stamp=Stamp(group=group, group_seq=clock[sender]),
            payload=payload,
            msg_id=self.next_msg_id(),
            sender=sender,
            publish_time=self.sim.now,
            vector=tuple(sorted(clock.items())),
        )
        self.trace.record(self.sim.now, "publish", msg=msg.msg_id, group=group, sender=sender)
        for member in sorted(self.membership.members(group)):
            if member == sender:
                # The local copy goes through the same causal machinery.
                self.sim.schedule(0.01, src.receive, msg, None)
                continue
            dst = self.host_processes[member]
            channel = self.channel_between(src, dst, self.host_delay(sender, member))
            channel.send(msg, msg.size_bytes())
        return msg.msg_id

    def pending_messages(self) -> Dict[int, int]:
        """Hosts with messages stuck in causal hold-back (diagnostics)."""
        return {
            host_id: process.pending
            for host_id, process in self.host_processes.items()
            if process.pending
        }
