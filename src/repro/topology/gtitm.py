"""Transit–stub topology generation in the style of GT-ITM.

The transit–stub model [Zegura et al., INFOCOM'96] builds an internetwork in
three tiers:

1. a connected graph of *transit domains* (the wide-area backbone),
2. a connected random graph of *transit routers* inside each domain,
3. several *stub domains* hanging off each transit router, each a connected
   random graph of stub routers.

Routers carry 2-D coordinates; every link's propagation delay is the
Euclidean distance between its endpoints scaled to milliseconds.  Transit
domains are spread over a large plane while stub routers huddle near their
parent transit router, so intra-stub delays are small and cross-backbone
delays are large — the delay locality structure the paper's placement
heuristic (Section 3.4) exploits.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class TransitStubParams:
    """Shape parameters for :func:`generate_transit_stub`.

    The defaults produce roughly ``transit_domains * transit_nodes_per_domain
    * (1 + stubs_per_transit_node * stub_size)`` routers; the paper-scale
    preset (:meth:`paper_scale`) yields ~10,000.
    """

    transit_domains: int = 2
    transit_nodes_per_domain: int = 4
    stubs_per_transit_node: int = 3
    stub_size: int = 8
    #: probability of an extra (non-spanning-tree) edge between two routers
    #: of the same transit domain
    transit_edge_prob: float = 0.6
    #: probability of an extra edge between two routers of the same stub
    stub_edge_prob: float = 0.4
    #: side length of the coordinate plane, in delay units (milliseconds)
    plane_size: float = 100.0
    #: stub routers are placed within this radius of their stub's center
    stub_radius: float = 2.0
    #: transit routers are placed within this radius of their domain center
    transit_radius: float = 10.0
    #: lower bound on any link delay (milliseconds); GT-ITM-style delay
    #: files have ~millisecond floors, and the stretch/RDP ratios of the
    #: evaluation are only meaningful with a realistic minimum hop cost
    min_delay: float = 1.0

    @classmethod
    def paper_scale(cls) -> "TransitStubParams":
        """Parameters yielding ~10,000 routers as in the paper's Section 4.1.

        4 transit domains x 8 transit routers x (1 + 3 stubs x 104 routers)
        = 32 + 9984 = 10,016 routers.
        """
        return cls(
            transit_domains=4,
            transit_nodes_per_domain=8,
            stubs_per_transit_node=3,
            stub_size=104,
            plane_size=100.0,
        )

    @classmethod
    def small(cls) -> "TransitStubParams":
        """A few-hundred-router topology for tests and quick runs."""
        return cls(
            transit_domains=2,
            transit_nodes_per_domain=4,
            stubs_per_transit_node=3,
            stub_size=10,
        )


@dataclass
class Topology:
    """An undirected router graph with coordinates and per-link delays.

    Attributes
    ----------
    n_nodes:
        Number of routers; router ids are ``0 .. n_nodes-1``.
    coords:
        ``(x, y)`` plane coordinates per router.
    edges:
        Undirected links as ``(u, v, delay_ms)``; each pair appears once.
    transit_nodes:
        Ids of backbone routers.
    stub_of:
        Maps each stub router to its ``(transit_router, stub_index)`` parent,
        absent for transit routers.
    """

    n_nodes: int
    coords: List[Tuple[float, float]]
    edges: List[Tuple[int, int, float]]
    transit_nodes: List[int] = field(default_factory=list)
    stub_of: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def stub_routers(self) -> List[int]:
        """All non-transit routers."""
        return [u for u in range(self.n_nodes) if u in self.stub_of]


def _euclid(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _connect_cluster(
    nodes: Sequence[int],
    coords: List[Tuple[float, float]],
    extra_edge_prob: float,
    min_delay: float,
    rng: random.Random,
) -> List[Tuple[int, int, float]]:
    """Build a connected random graph over ``nodes``.

    A random spanning tree guarantees connectivity; extra edges are added
    independently with ``extra_edge_prob`` between random pairs, giving the
    irregular meshes GT-ITM produces.
    """
    edges: List[Tuple[int, int, float]] = []
    seen: set = set()

    def add(u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            return
        seen.add(key)
        delay = max(_euclid(coords[u], coords[v]), min_delay)
        edges.append((u, v, delay))

    # Random spanning tree: attach each node to a random earlier node.
    order = list(nodes)
    rng.shuffle(order)
    for i in range(1, len(order)):
        add(order[i], order[rng.randrange(i)])
    # Extra mesh edges.
    n = len(order)
    if n > 2 and extra_edge_prob > 0:
        extra_target = int(extra_edge_prob * n)
        for _ in range(extra_target):
            u = order[rng.randrange(n)]
            v = order[rng.randrange(n)]
            add(u, v)
    return edges


def generate_transit_stub(
    params: Optional[TransitStubParams] = None,
    seed: int = 0,
) -> Topology:
    """Generate a transit–stub topology.

    Parameters
    ----------
    params:
        Shape parameters; defaults to :class:`TransitStubParams` defaults.
    seed:
        Seed for the private RNG; identical seeds give identical topologies.
    """
    if params is None:
        params = TransitStubParams()
    rng = random.Random(seed)

    coords: List[Tuple[float, float]] = []
    edges: List[Tuple[int, int, float]] = []
    transit_nodes: List[int] = []
    stub_of: Dict[int, Tuple[int, int]] = {}
    domains: List[List[int]] = []

    def new_node(x: float, y: float) -> int:
        coords.append((x, y))
        return len(coords) - 1

    # --- Tier 1 and 2: transit domains and their routers -----------------
    size = params.plane_size
    for _ in range(params.transit_domains):
        cx = rng.uniform(0.15 * size, 0.85 * size)
        cy = rng.uniform(0.15 * size, 0.85 * size)
        domain: List[int] = []
        for _ in range(params.transit_nodes_per_domain):
            angle = rng.uniform(0, 2 * math.pi)
            radius = rng.uniform(0, params.transit_radius)
            node = new_node(cx + radius * math.cos(angle), cy + radius * math.sin(angle))
            domain.append(node)
            transit_nodes.append(node)
        edges.extend(
            _connect_cluster(
                domain, coords, params.transit_edge_prob, params.min_delay, rng
            )
        )
        domains.append(domain)

    # Inter-domain links: a ring over domains (connectivity) plus one random
    # chord per domain when there are enough domains to need shortcuts.
    linked: Set[Tuple[int, int]] = set()

    def domain_link(da: List[int], db: List[int]) -> None:
        u = rng.choice(da)
        v = rng.choice(db)
        if (min(u, v), max(u, v)) in linked:
            return  # already linked (a chord may redraw a ring link): list it once
        linked.add((min(u, v), max(u, v)))
        delay = max(_euclid(coords[u], coords[v]), params.min_delay)
        edges.append((u, v, delay))

    n_domains = len(domains)
    if n_domains > 1:
        for i in range(n_domains):
            domain_link(domains[i], domains[(i + 1) % n_domains])
        if n_domains > 3:
            for i in range(n_domains):
                j = rng.randrange(n_domains)
                if j != i:
                    domain_link(domains[i], domains[j])

    # --- Tier 3: stub domains --------------------------------------------
    for transit in list(transit_nodes):
        tx, ty = coords[transit]
        for stub_index in range(params.stubs_per_transit_node):
            # Stub center near the parent transit router.
            angle = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(1.0, 3.0) * params.stub_radius
            sx, sy = tx + dist * math.cos(angle), ty + dist * math.sin(angle)
            stub: List[int] = []
            for _ in range(params.stub_size):
                angle = rng.uniform(0, 2 * math.pi)
                radius = rng.uniform(0, params.stub_radius)
                node = new_node(
                    sx + radius * math.cos(angle), sy + radius * math.sin(angle)
                )
                stub_of[node] = (transit, stub_index)
                stub.append(node)
            edges.extend(
                _connect_cluster(
                    stub, coords, params.stub_edge_prob, params.min_delay, rng
                )
            )
            # Gateway link from the stub into the backbone.
            gateway = rng.choice(stub)
            delay = max(_euclid(coords[gateway], coords[transit]), params.min_delay)
            edges.append((gateway, transit, delay))

    return Topology(
        n_nodes=len(coords),
        coords=coords,
        edges=edges,
        transit_nodes=transit_nodes,
        stub_of=stub_of,
    )
