"""Attach a :class:`~repro.obs.registry.MetricsRegistry` to running code.

Two complementary mechanisms keep the hot path cheap:

* **Live hooks** update instruments as events happen — the per-host
  hold-back occupancy gauges (via :attr:`DeliveryState.on_occupancy`) and
  the delivery-latency histogram / per-kind record counters (via a trace
  subscriber).  These fire only when a real registry is attached.
* **Pull collectors** mirror counters the simulation already maintains
  (per-link bytes, queue high-water marks, atom work counts, event-loop
  stats) into instruments at :meth:`MetricsRegistry.collect` time — i.e.
  at export, costing the hot path nothing.

``instrument_fabric`` is called by :class:`~repro.core.protocol.
OrderingFabric` itself when constructed with a ``registry``; call it
directly only for fabrics built before a registry existed.
"""

from typing import TYPE_CHECKING, Dict

from repro.obs.registry import Gauge, MetricsRegistry, log_buckets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.protocol import OrderingFabric
    from repro.runtime.interfaces import NodeHandle


def _process_label(name: object) -> str:
    """Render a process name tuple like ``("host", 3)`` as ``host:3``."""
    if isinstance(name, tuple):
        return ":".join(str(part) for part in name)
    return str(name)


def _occupancy_observer(current: Gauge, high_water: Gauge):
    def observe(depth: int) -> None:
        current.set(depth)
        high_water.set_max(depth)

    return observe


def instrument_fabric(fabric: "OrderingFabric", registry: MetricsRegistry) -> None:
    """Wire live hooks and a pull collector between ``fabric`` and ``registry``.

    Safe to call with a disabled registry (everything degrades to no-ops).
    The collector holds a reference to the fabric; when one registry spans
    many fabrics (e.g. a figure sweep), instruments with identical labels
    reflect the most recently collected fabric.
    """
    if not registry.enabled:
        return

    # Live per-host hold-back occupancy — the paper's Figure 8 quantity,
    # updated on every buffer change instead of scanned after the run.
    for host_id, process in fabric.host_processes.items():
        process.delivery.on_occupancy = _occupancy_observer(
            registry.gauge(
                "repro_holdback_occupancy",
                "messages currently buffered awaiting predecessors",
                host=host_id,
            ),
            registry.gauge(
                "repro_holdback_high_water",
                "peak hold-back buffer occupancy",
                host=host_id,
            ),
        )

    # Live delivery-latency histogram + per-kind record counters, fed by
    # the trace subscriber stream (active only while tracing is enabled).
    latency = registry.histogram(
        "repro_delivery_latency_ms",
        "publish-to-deliver latency per delivered message copy",
        buckets=log_buckets(),
    )
    kind_counters: Dict[str, object] = {}

    def on_record(record) -> None:
        counter = kind_counters.get(record.kind)
        if counter is None:
            counter = registry.counter(
                "repro_trace_records", "trace records by kind", kind=record.kind
            )
            kind_counters[record.kind] = counter
        counter.inc()
        if record.kind == "deliver":
            latency.observe(record.time - record.data["publish_time"])

    fabric.trace.subscribe(on_record)
    registry.register_collector(_fabric_collector(fabric))


def _fabric_collector(fabric: "OrderingFabric"):
    """Build the pull collector mirroring fabric state into instruments."""

    def collect(registry: MetricsRegistry) -> None:
        for (src, dst), channel in fabric.network.channels.items():
            labels = {"src": _process_label(src), "dst": _process_label(dst)}
            registry.counter(
                "repro_link_bytes_sent", "wire bytes per directed link", **labels
            ).set_total(channel.bytes_sent)
            registry.counter(
                "repro_link_sends", "packet transmissions per link", **labels
            ).set_total(channel.sends)
            registry.counter(
                "repro_link_drops",
                "packets dropped per link, by cause",
                cause="loss",
                **labels,
            ).set_total(channel.loss_drops)
            registry.counter(
                "repro_link_drops",
                "packets dropped per link, by cause",
                cause="outage",
                **labels,
            ).set_total(channel.outage_drops)
            registry.gauge(
                "repro_link_in_flight_high_water",
                "peak packets concurrently on the wire",
                **labels,
            ).set_max(channel.in_flight_high_water)
        for host_id, process in fabric.host_processes.items():
            registry.counter(
                "repro_host_delivered", "messages delivered to the app", host=host_id
            ).set_total(process.delivery.delivered_count)
            # Covers fabrics whose live observer was attached late (or
            # never): the post-hoc high-water is authoritative either way.
            registry.gauge(
                "repro_holdback_high_water",
                "peak hold-back buffer occupancy",
                host=host_id,
            ).set_max(process.delivery.buffered_high_water)
        for node_id, process in fabric.node_processes.items():
            registry.counter(
                "repro_node_messages_handled",
                "distinct message visits per sequencing node",
                node=node_id,
            ).set_total(process.messages_handled)
            registry.gauge(
                "repro_node_queue_high_water",
                "peak service queue depth (service-time model)",
                node=node_id,
            ).set_max(process.queue_high_water)
            for atom_id, runtime in process.atom_runtimes.items():
                atom_labels = {"atom": repr(atom_id), "node": node_id}
                registry.counter(
                    "repro_atom_stamps_issued",
                    "messages stamped by this atom",
                    **atom_labels,
                ).set_total(runtime.messages_sequenced)
                registry.counter(
                    "repro_atom_pass_through",
                    "messages forwarded without stamping",
                    **atom_labels,
                ).set_total(runtime.messages_passed_through)
        registry.counter(
            "repro_messages_published", "messages injected into the fabric"
        ).set_total(len(fabric.published))
        registry.counter(
            "repro_retransmissions", "reliable-link retransmissions"
        ).set_total(fabric.retransmissions)
        for cause in sorted(fabric.retransmissions_by_cause):
            registry.counter(
                "repro_retransmissions_by_cause",
                "retransmissions attributed to why the copy vanished",
                cause=cause,
            ).set_total(fabric.retransmissions_by_cause[cause])
        for (src, dst) in sorted(fabric.retransmits_by_link, key=repr):
            registry.counter(
                "repro_link_retransmits",
                "retransmission attempts per directed link",
                src=_process_label(src),
                dst=_process_label(dst),
            ).set_total(fabric.retransmits_by_link[(src, dst)])
        registry.counter(
            "repro_acks_sent", "reliable-link acknowledgments sent"
        ).set_total(fabric.acks_sent)
        registry.counter(
            "repro_link_failures",
            "packets abandoned after exhausting the retransmit budget",
        ).set_total(len(fabric.link_failures))
        registry.counter(
            "repro_failovers", "live sequencing-node relocations"
        ).set_total(len(fabric.failovers))
        _collect_simulator(fabric.sim, registry)

    return collect


def _collect_simulator(sim: "NodeHandle", registry: MetricsRegistry) -> None:
    """Mirror event-loop statistics into the registry.

    Works on any runtime node handle — the simulator and the asyncio
    scheduler expose the same statistics surface (``events_executed``,
    ``pending``, ``heap_high_water``), so the metric
    names stay identical across backends; only their source differs
    (virtual-time heap vs. live event-loop timers).
    """
    registry.counter(
        "repro_sim_events_executed", "events executed by the event loop"
    ).set_total(sim.events_executed)
    registry.gauge(
        "repro_sim_pending_events", "live events currently queued"
    ).set(sim.pending)
    registry.gauge(
        "repro_sim_heap_high_water", "peak event-queue depth"
    ).set_max(getattr(sim, "heap_high_water", 0))
