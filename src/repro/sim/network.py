"""Simulated point-to-point channels and the network that owns them.

Channels model the paper's inter-node communication assumptions:

* **FIFO** — Section 3.1 assumes a FIFO channel between any two sequencers.
  A channel has a constant propagation delay, and delivery times are forced
  to be non-decreasing, so FIFO holds even if the delay is later changed.
  Only the packet at the head of a channel holds a timer; one sent while
  another is in flight waits in the channel's *backlog* — a key, a
  sequence number and a payload in three columns — under the key the
  timer heap handed out at send time, and is armed when its predecessor
  arrives.  The heap therefore fires the same ``(time, seq)`` sequence as
  if every packet were on it, and a packet in flight costs three column
  slots instead of a handle, a heap entry and an argument tuple.
* **Propagation delay only** — Section 4.1: "The simulator models the
  propagation delay between routers, but not packet losses or queuing
  delays."  Loss is therefore off by default, but can be enabled
  (``loss_rate > 0``) to exercise the ack/retransmission machinery that
  Section 3.1 specifies.

Fault injection (see :mod:`repro.faults`) extends the model with *link
outages* (a window during which every send on a channel is dropped) and
*partitions* (a cut between two sets of processes; channels created while
the cut is active inherit the remaining outage window).  Drops are
attributed to their cause — random loss vs. outage — so chaos reports can
explain where packets went.

One :class:`Network` serves every backend.  It is typed against the node
handle (anything with ``now`` and ``schedule_at``, plus ``reserve`` and
``push_reserved`` for the backlog), so the simulator's heap and the
asyncio scheduler's heap use it unchanged; the explorer subclasses it to
queue every surviving packet on a wire for its controller
(:mod:`repro.runtime.explore_backend`).
"""

import random
from array import array
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.runtime.node import Process

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.interfaces import NodeHandle

#: delivered backlog slots are cut off the columns' front once there are
#: this many and they are at least half of them (a channel that never
#: drains keeps what is in flight, not what it ever sent)
_COMPACT_AT = 1024


class _Backlog:
    """The packets of one channel sent behind its head, in send order.

    Each is a slot in three columns: the ``(key, seq)`` the timer heap
    handed out at send time and the payload.  ``read`` is the next slot
    to arm.
    """

    __slots__ = ("keys", "seqs", "payloads", "read")

    def __init__(self) -> None:
        self.keys = array("d")
        self.seqs = array("q")
        self.payloads: List[Any] = []
        self.read = 0


class Channel:
    """A unidirectional FIFO link between two processes.

    Parameters
    ----------
    node:
        The node handle (clock + timers) that schedules deliveries.
    src, dst:
        Endpoint processes.
    delay:
        One-way propagation delay (milliseconds by project convention).
    loss_rate:
        Probability in ``[0, 1)`` that a given send is dropped.
    rng:
        Random source used for loss decisions; required if ``loss_rate > 0``.
    """

    def __init__(
        self,
        node: "NodeHandle",
        src: Process,
        dst: Process,
        delay: float,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if delay < 0:
            raise ValueError(f"channel delay must be non-negative, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0 and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self.node = node
        self.src = src
        self.dst = dst
        self.delay = delay
        self.loss_rate = loss_rate
        self._rng = rng
        self._last_delivery_time = 0.0
        self._down_until = 0.0
        self.sends = 0
        #: packets dropped by Bernoulli loss injection
        self.loss_drops = 0
        #: packets dropped because the link was in an outage window
        self.outage_drops = 0
        self.bytes_sent = 0
        self.receives = 0
        #: packets currently propagating (scheduled but not yet delivered)
        self.in_flight = 0
        self.in_flight_high_water = 0
        #: the one callback every send schedules: ``self._deliver`` in the
        #: send would allocate a bound method per packet in flight
        self._on_arrival = self._deliver
        #: where a packet sent on an idle channel goes,
        #: ``put(arrival, callback, payload)``: the node's timer heap, bound
        #: once so a send pays no extra frame
        self._put: Callable[..., Any] = node.schedule_at
        #: packets sent behind the one in flight; made on first use and
        #: dropped when it drains, so an idle channel holds ``None``
        self._backlog: Optional[_Backlog] = None

    @property
    def drops(self) -> int:
        """Total packets dropped, whatever the cause."""
        return self.loss_drops + self.outage_drops

    def fail(self, duration: float) -> None:
        """Take the link down for ``duration`` time units.

        Packets sent while down are dropped (an outage behaves like 100%
        loss); an upper reliability layer — e.g. the ordering fabric's
        retransmission buffers — recovers them after the link heals.
        """
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        self._down_until = max(self._down_until, self.node.now + duration)

    @property
    def is_down(self) -> bool:
        """Whether the link is currently in an outage window."""
        return self.node.now < self._down_until

    def send(self, payload: Any, size_bytes: int = 0) -> bool:
        """Transmit ``payload`` to the destination process.

        Returns ``True`` if the packet was put on the wire, ``False`` if it
        was dropped by loss injection or a link outage.  ``size_bytes``
        feeds the overhead accounting used by the stamp-size benchmarks.
        """
        self.sends += 1
        self.src.messages_sent += 1
        self.bytes_sent += size_bytes
        now = self.node.now
        if now < self._down_until:
            self.outage_drops += 1
            return False
        if self.loss_rate > 0:
            assert self._rng is not None  # enforced by the constructor
            if self._rng.random() < self.loss_rate:
                self.loss_drops += 1
                return False
        # Enforce FIFO: never deliver before a previously sent packet.
        arrival = now + self.delay
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        if self.in_flight:
            self._queue(arrival, payload)
        else:
            self._put(arrival, self._on_arrival, payload)
        self.in_flight += 1
        if self.in_flight > self.in_flight_high_water:
            self.in_flight_high_water = self.in_flight
        return True

    def _queue(self, arrival: float, payload: Any) -> None:
        """Hold a packet sent behind the one in flight: its key is taken
        now, its timer armed when its predecessor arrives."""
        node: Any = self.node
        key, seq = node.reserve(arrival)
        backlog = self._backlog
        if backlog is None:
            backlog = self._backlog = _Backlog()
        backlog.keys.append(key)
        backlog.seqs.append(seq)
        backlog.payloads.append(payload)

    def _deliver(self, payload: Any) -> None:
        backlog = self._backlog
        if backlog is not None:
            # Arm the next packet first, under the key it was sent with.
            index = backlog.read
            payloads = backlog.payloads
            node: Any = self.node
            node.push_reserved(
                backlog.keys[index], backlog.seqs[index], self._on_arrival,
                payloads[index],
            )
            index += 1
            if index == len(payloads):
                self._backlog = None
            else:
                payloads[index - 1] = None  # the timer holds it now
                if index >= _COMPACT_AT and 2 * index >= len(payloads):
                    del backlog.keys[:index], backlog.seqs[:index], payloads[:index]
                    index = 0
                backlog.read = index
        self.in_flight -= 1
        self.receives += 1
        self.dst.messages_received += 1
        self.dst.receive(payload, self)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.src.name!r}->{self.dst.name!r} "
            f"delay={self.delay:.3f} sends={self.sends}>"
        )


class Network:
    """A registry of processes and the channels connecting them.

    The network creates channels on demand from a delay oracle — typically
    a :class:`~repro.topology.routing.RoutingTable` that returns shortest-
    path delays between the machines hosting the two processes.  A
    subclass changes which channel class it builds, which RNG a new
    channel draws loss from (:meth:`_channel_rng`) and what retirement
    keeps (:meth:`_keep_retired`); everything else is shared.
    """

    channel_class = Channel

    #: channel counters carried over when channels are retired (failover)
    _CARRIED_STATS = (
        "sends",
        "loss_drops",
        "outage_drops",
        "receives",
    )

    def __init__(
        self,
        node: "NodeHandle",
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        self.node = node
        self.loss_rate = loss_rate
        self.rng = rng
        self._processes: Dict[Any, Process] = {}
        self._channels: Dict[Tuple[Any, Any], Channel] = {}
        #: active partition cuts: (heal time, side A, side B or None=rest)
        self._cuts: List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]] = []
        #: counters accumulated from channels retired by failover, so the
        #: network-wide totals stay monotonic across node relocations
        self._retired_totals: Dict[str, int] = {k: 0 for k in self._CARRIED_STATS}
        self.channels_retired = 0
        #: edges retired by failover and not since re-created; exported
        #: into certificates so GV206 can prove no retired edge is live
        self._retired_keys: Set[Tuple[Any, Any]] = set()

    def add_process(self, process: Process) -> Process:
        """Register a process; names must be unique."""
        if process.name in self._processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process
        return process

    def process(self, name: Any) -> Process:
        """Look up a registered process by name."""
        return self._processes[name]

    def __contains__(self, name: Any) -> bool:
        return name in self._processes

    def connect(self, src_name: Any, dst_name: Any, delay: float) -> Channel:
        """Create (or fetch) the unidirectional channel ``src -> dst``.

        A repeated connect with a different delay is an error: links in a
        run are immutable, matching the static-topology evaluation model.
        (Failover relocations first *retire* a process's channels, so the
        re-created channels may legitimately carry a new delay.)
        """
        key = (src_name, dst_name)
        existing = self._channels.get(key)
        if existing is not None:
            if existing.delay != delay:
                raise ValueError(
                    f"channel {key} already exists with delay "
                    f"{existing.delay}, refusing {delay}"
                )
            return existing
        channel = self.channel_class(
            self.node,
            self._processes[src_name],
            self._processes[dst_name],
            delay,
            loss_rate=self.loss_rate,
            rng=self._channel_rng(key),
        )
        self._channels[key] = channel
        # A re-created edge (post-failover reconnect) is live again.
        self._retired_keys.discard(key)
        # A channel created while a partition cut is active inherits the
        # remaining outage window, so retransmissions cannot tunnel
        # through the cut on a freshly created channel.
        for heal_time, side_a, side_b in self._active_cuts():
            if _crosses_cut(src_name, dst_name, side_a, side_b):
                remaining = heal_time - self.node.now
                if remaining > 0:
                    channel.fail(remaining)
        return channel

    def _channel_rng(self, key: Tuple[Any, Any]) -> Optional[random.Random]:
        """The loss RNG a new channel ``key`` draws from: the shared one."""
        return self.rng

    def channel(self, src_name: Any, dst_name: Any) -> Channel:
        """Fetch an existing channel; raises ``KeyError`` if absent."""
        return self._channels[(src_name, dst_name)]

    @property
    def channels(self) -> Dict[Tuple[Any, Any], Channel]:
        """Read-only view of all channels (for metrics)."""
        return dict(self._channels)

    # -- fault injection ---------------------------------------------------

    def _active_cuts(
        self,
    ) -> List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]]:
        self._cuts = [cut for cut in self._cuts if cut[0] > self.node.now]
        return self._cuts

    def partition(
        self,
        side: FrozenSet[Any],
        duration: float,
        side_b: Optional[FrozenSet[Any]] = None,
    ) -> int:
        """Cut ``side`` off from ``side_b`` (default: everything else).

        Every existing channel crossing the cut (in either direction) goes
        into an outage window for ``duration``; channels created while the
        cut is active inherit the remaining window (see :meth:`connect`).
        Returns the number of channels failed immediately.
        """
        if duration <= 0:
            raise ValueError(f"partition duration must be positive, got {duration}")
        side = frozenset(side)
        other = frozenset(side_b) if side_b is not None else None
        self._cuts.append((self.node.now + duration, side, other))
        failed = 0
        for (src_name, dst_name), channel in self._channels.items():
            if _crosses_cut(src_name, dst_name, side, other):
                channel.fail(duration)
                failed += 1
        return failed

    def retire_channels(self, name: Any) -> int:
        """Remove every channel touching process ``name`` (failover).

        The channels' counters are folded into the network-wide retired
        totals so ``total_*`` aggregates remain monotonic.  In-flight
        packets already scheduled on a retired channel still deliver (they
        were on the wire); new traffic creates fresh channels — typically
        with a new delay, because the process moved machines.
        """
        retired = [
            key for key in self._channels if key[0] == name or key[1] == name
        ]
        for key in retired:
            channel = self._channels.pop(key)
            for stat in self._CARRIED_STATS:
                self._retired_totals[stat] += getattr(channel, stat)
            self._keep_retired(key, channel)
        self.channels_retired += len(retired)
        self._retired_keys.update(retired)
        return len(retired)

    def _keep_retired(self, key: Tuple[Any, Any], channel: Channel) -> None:
        """Hook for a retired channel: the heap holds its head packet's
        timer, whose callback keeps the channel and its backlog alive."""

    @property
    def retired_edges(self) -> Set[Tuple[Any, Any]]:
        """Edges retired by failover and not re-created since."""
        return set(self._retired_keys)

    # -- aggregates --------------------------------------------------------

    def total_sends(self) -> int:
        """Aggregate packet transmissions across all channels."""
        return (
            sum(c.sends for c in self._channels.values())
            + self._retired_totals["sends"]
        )

    def total_drops(self) -> int:
        """Aggregate packets lost to loss injection or outages."""
        return self.total_loss_drops() + self.total_outage_drops()

    def total_loss_drops(self) -> int:
        """Aggregate packets lost to Bernoulli loss injection."""
        return (
            sum(c.loss_drops for c in self._channels.values())
            + self._retired_totals["loss_drops"]
        )

    def total_outage_drops(self) -> int:
        """Aggregate packets lost to link outages / partitions."""
        return (
            sum(c.outage_drops for c in self._channels.values())
            + self._retired_totals["outage_drops"]
        )


def _crosses_cut(
    src_name: Any,
    dst_name: Any,
    side: FrozenSet[Any],
    side_b: Optional[FrozenSet[Any]],
) -> bool:
    """Whether the directed channel ``src -> dst`` crosses the cut."""
    if side_b is None:
        return (src_name in side) != (dst_name in side)
    return (src_name in side and dst_name in side_b) or (
        src_name in side_b and dst_name in side
    )
