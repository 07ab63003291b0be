"""Shared experiment machinery: environments, workload runs, tables.

An :class:`ExperimentEnv` owns the expensive, reusable substrate — the
router topology, its routing table, and the attached hosts — so parameter
sweeps (e.g. Figure 5's 100 runs x many group counts) rebuild only the
cheap parts (membership, sequencing graph, placement) per run.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.placement import Placement, co_locate_and_order, place
from repro.obs.registry import MetricsRegistry
from repro.core.protocol import OrderingFabric
from repro.core.sequencing_graph import SequencingGraph
from repro.pubsub.membership import GroupMembership
from repro.topology.clusters import Host, attach_hosts
from repro.topology.gtitm import Topology, TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable

#: Inter-publish quiescence gap: each measured message runs in isolation,
#: matching the paper's "each node sends a message to each of the groups it
#: is part of" latency methodology (no cross-message buffering delays).
ISOLATION_GAP_MS = 1.0


@dataclass
class ExperimentEnv:
    """Reusable substrate: topology + routing + hosts.

    Parameters mirror the paper's setup (Section 4.1): a GT-ITM-style
    transit–stub topology (10,000 routers at paper scale), hosts attached
    in similar-size clusters distributed uniformly at random.
    """

    n_hosts: int = 128
    seed: int = 0
    paper_scale: bool = False
    cluster_size: int = 8
    #: optional metrics registry shared by every fabric built from this
    #: environment (see repro.obs); None = no instrumentation overhead
    registry: Optional[MetricsRegistry] = None
    topology: Topology = field(init=False)
    routing: RoutingTable = field(init=False)
    hosts: List[Host] = field(init=False)

    def __post_init__(self) -> None:
        params = (
            TransitStubParams.paper_scale()
            if self.paper_scale
            else TransitStubParams.small()
        )
        self.topology = generate_transit_stub(params, seed=self.seed)
        self.routing = RoutingTable(self.topology)
        self.hosts = attach_hosts(
            self.topology,
            self.n_hosts,
            cluster_size=self.cluster_size,
            rng=random.Random(self.seed),
        )

    @property
    def host_router(self) -> Dict[int, int]:
        return {h.host_id: h.router for h in self.hosts}

    # ------------------------------------------------------------------

    def membership_from(self, snapshot: Dict[int, FrozenSet[int]]) -> GroupMembership:
        """Materialize a snapshot into a membership matrix."""
        membership = GroupMembership()
        for group_id, members in sorted(snapshot.items()):
            membership.create_group(members, group_id=group_id)
        return membership

    def build_graph(
        self, snapshot: Dict[int, FrozenSet[int]], seed: int = 0
    ) -> SequencingGraph:
        """Sequencing graph for a snapshot (deterministic per seed)."""
        return SequencingGraph.build(snapshot, rng=random.Random(seed))

    def build_placement(
        self, graph: SequencingGraph, seed: int = 0, machines: bool = True
    ) -> Placement:
        """Placement for a graph.

        ``machines=False`` runs only the co-location step — enough for the
        node-count and stress metrics, and much faster in big sweeps.
        """
        rng = random.Random(seed)
        if machines:
            return place(graph, self.host_router, self.topology, self.routing, rng=rng)
        return Placement(co_locate_and_order(graph, rng=rng))

    def build_fabric(
        self, membership: GroupMembership, seed: int = 0, **kwargs
    ) -> OrderingFabric:
        """An ordering fabric over this environment's substrate.

        The environment's ``registry`` (when set) is passed along unless
        the caller overrides it, so sweeps can aggregate metrics across
        every fabric they build.
        """
        kwargs.setdefault("registry", self.registry)
        return OrderingFabric(
            membership, self.hosts, self.topology, self.routing, seed=seed, **kwargs
        )

    # ------------------------------------------------------------------

    def run_one_message_per_membership(
        self, fabric: OrderingFabric, isolate: bool = True
    ) -> int:
        """The paper's latency workload: each node sends to each its groups.

        With ``isolate=True`` every message runs to quiescence before the
        next is published, so measured latencies are pure path-traversal
        times (no receiver-side ordering waits).  Returns messages sent.
        """
        sent = 0
        for group in fabric.membership.groups():
            for member in sorted(fabric.membership.members(group)):
                fabric.publish(member, group, payload=None)
                sent += 1
                if isolate:
                    fabric.run()
        fabric.run()
        return sent


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table (the benches' printable output)."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
