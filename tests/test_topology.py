"""Unit tests for the transit-stub generator, routing, and host attachment."""

import math
import random

import networkx as nx
import pytest

from repro.topology.clusters import attach_hosts
from repro.topology.gtitm import TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable

# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def expected_nodes(params):
    """Routers a transit-stub parameter set yields: each transit router
    plus its stub domains."""
    transit = params.transit_domains * params.transit_nodes_per_domain
    return transit * (1 + params.stubs_per_transit_node * params.stub_size)


def test_expected_node_count():
    params = TransitStubParams.small()
    topology = generate_transit_stub(params, seed=0)
    assert topology.n_nodes == expected_nodes(params)


def test_paper_scale_is_ten_thousand():
    params = TransitStubParams.paper_scale()
    assert 9_500 <= expected_nodes(params) <= 10_500


def test_determinism_same_seed():
    a = generate_transit_stub(TransitStubParams.small(), seed=5)
    b = generate_transit_stub(TransitStubParams.small(), seed=5)
    assert a.edges == b.edges
    assert a.coords == b.coords


def test_different_seeds_differ():
    a = generate_transit_stub(TransitStubParams.small(), seed=1)
    b = generate_transit_stub(TransitStubParams.small(), seed=2)
    assert a.edges != b.edges


def test_graph_is_connected(small_topology):
    graph = nx.Graph()
    graph.add_nodes_from(range(small_topology.n_nodes))
    graph.add_edges_from((u, v) for u, v, _ in small_topology.edges)
    assert nx.is_connected(graph)


def test_transit_and_stub_partition(small_topology):
    transit = set(small_topology.transit_nodes)
    stubs = set(small_topology.stub_routers())
    assert transit.isdisjoint(stubs)
    assert transit | stubs == set(range(small_topology.n_nodes))


def test_all_delays_respect_floor(small_topology):
    min_delay = TransitStubParams.small().min_delay
    assert all(d >= min_delay for _, _, d in small_topology.edges)


def test_no_self_loops_or_duplicate_edges(small_topology):
    seen = set()
    for u, v, _ in small_topology.edges:
        assert u != v
        key = (min(u, v), max(u, v))
        assert key not in seen
        seen.add(key)


def test_every_pair_is_listed_once():
    """A chord between transit domains may redraw a pair the ring already
    linked (small seeds 2, 8, 13 and 54 did); the generator lists it once."""
    for seed in range(64):
        edges = generate_transit_stub(TransitStubParams.small(), seed=seed).edges
        pairs = [(min(u, v), max(u, v)) for u, v, _ in edges]
        assert len(pairs) == len(set(pairs)), seed


def test_stub_nodes_near_parent_transit(small_topology):
    params = TransitStubParams.small()
    for stub, (transit, _idx) in small_topology.stub_of.items():
        sx, sy = small_topology.coords[stub]
        tx, ty = small_topology.coords[transit]
        # stub center is within 3*radius of the transit node, stub nodes
        # within another radius of the center
        assert math.hypot(sx - tx, sy - ty) <= 4.5 * params.stub_radius


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_routing_neighbors_match_edges(small_topology, routing):
    expected = {u: set() for u in range(small_topology.n_nodes)}
    for u, v, _ in small_topology.edges:
        expected[u].add(v)
        expected[v].add(u)
    for router, neighbors in expected.items():
        assert routing.neighbors(router) == sorted(neighbors)
        assert all(type(v) is int for v in routing.neighbors(router))


def test_routing_delay_zero_to_self(routing):
    assert routing.delay(0, 0) == 0.0


def test_routing_symmetric(routing):
    assert routing.delay(0, 50) == pytest.approx(routing.delay(50, 0))


def test_routing_matches_networkx_reference(small_topology, routing):
    graph = nx.Graph()
    for u, v, d in small_topology.edges:
        graph.add_edge(u, v, weight=d)
    lengths = nx.single_source_dijkstra_path_length(graph, 0, weight="weight")
    for dst in (1, 17, 42, small_topology.n_nodes - 1):
        assert routing.delay(0, dst) == pytest.approx(lengths[dst])


def test_routing_path_endpoints(routing):
    path = routing.path(3, 77)
    assert path[0] == 3
    assert path[-1] == 77


def test_routing_path_edges_exist(small_topology, routing):
    edges = {(min(u, v), max(u, v)) for u, v, _ in small_topology.edges}
    path = routing.path(5, 120)
    for u, v in zip(path, path[1:]):
        assert (min(u, v), max(u, v)) in edges


def test_routing_path_delay_consistent(small_topology, routing):
    delays = {}
    for u, v, d in small_topology.edges:
        delays[(u, v)] = d
        delays[(v, u)] = d
    path = routing.path(2, 99)
    total = sum(delays[(u, v)] for u, v in zip(path, path[1:]))
    assert total == pytest.approx(routing.delay(2, 99))


def test_routing_path_to_self(routing):
    assert routing.path(9, 9) == [9]


def test_routing_triangle_inequality(routing):
    # Shortest paths always satisfy the triangle inequality.
    for a, b, c in [(0, 40, 90), (5, 60, 110)]:
        assert routing.delay(a, c) <= routing.delay(a, b) + routing.delay(b, c) + 1e-9


def test_routing_cache_reuse(small_topology):
    routing = RoutingTable(small_topology)
    routing.delay(0, 5)
    assert routing.cache_size() == 1
    routing.delay(0, 10)
    assert routing.cache_size() == 1  # same source reused
    routing.delay(5, 0)  # dst row already cached; no new row needed
    assert routing.cache_size() == 1


# ---------------------------------------------------------------------------
# Host attachment
# ---------------------------------------------------------------------------


def test_attach_hosts_count_and_ids(small_topology):
    hosts = attach_hosts(small_topology, 24, rng=random.Random(0))
    assert [h.host_id for h in hosts] == list(range(24))


def test_attach_hosts_distinct_routers(small_topology):
    hosts = attach_hosts(small_topology, 24, rng=random.Random(0))
    routers = [h.router for h in hosts]
    assert len(set(routers)) == len(routers)


def test_attach_hosts_cluster_sizes_similar(small_topology):
    hosts = attach_hosts(small_topology, 26, cluster_size=8, rng=random.Random(0))
    from collections import Counter

    sizes = Counter(h.cluster for h in hosts).values()
    assert max(sizes) - min(sizes) <= 1


def test_attach_hosts_cluster_members_are_close(small_topology):
    hosts = attach_hosts(small_topology, 32, cluster_size=8, rng=random.Random(3))
    coords = small_topology.coords
    by_cluster = {}
    for host in hosts:
        by_cluster.setdefault(host.cluster, []).append(coords[host.router])
    plane = TransitStubParams.small().plane_size
    for points in by_cluster.values():
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        # Cluster spread is small relative to the plane.
        assert max(xs) - min(xs) < plane / 2
        assert max(ys) - min(ys) < plane / 2


def test_attach_hosts_too_many_rejected(small_topology):
    with pytest.raises(ValueError):
        attach_hosts(small_topology, small_topology.n_nodes + 1)


def test_attach_hosts_zero_rejected(small_topology):
    with pytest.raises(ValueError):
        attach_hosts(small_topology, 0)


def test_attach_hosts_bad_cluster_size(small_topology):
    with pytest.raises(ValueError):
        attach_hosts(small_topology, 8, cluster_size=0)


def test_attach_hosts_deterministic(small_topology):
    a = attach_hosts(small_topology, 16, rng=random.Random(7))
    b = attach_hosts(small_topology, 16, rng=random.Random(7))
    assert a == b


def test_access_delay_positive(small_topology):
    hosts = attach_hosts(small_topology, 8, rng=random.Random(0))
    assert all(h.access_delay > 0 for h in hosts)
