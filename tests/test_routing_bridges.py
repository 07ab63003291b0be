"""Differential tests of lazily grown routing trees on bridge-heavy graphs.

``RoutingTable`` grows each source's shortest-path tree one 2-edge-connected
component at a time, only across the bridges a query needs, and copies a
component's tree grown once from its head when no offset can change it.
These tests drive it where bridges are everywhere (trees, trees with a few
extra links, forests, chains of blobs joined by single links), on a
tie-heavy integer grid, and through three epoch switches on the paper
testbed, against the full-row oracle of ``tests/test_routing_trees.py`` and
scipy's own rows.

The tie rule: among equally short predecessors a router takes the
highest-numbered one.  ``rule_predecessors`` derives it from a distance
row alone.
"""

import random
from collections import Counter
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.reconfigure import reconfigure
from repro.experiments.common import ExperimentEnv
from repro.topology.gtitm import Topology
from repro.topology.routing import RoutingTable
from repro.workloads.zipf import zipf_membership
from tests.test_routing_trees import FullRowRoutingTable, assert_same_answer, topology

Edge = Tuple[int, int, float]


def make_topology(n: int, edges: List[Edge]) -> Topology:
    return Topology(n_nodes=n, coords=[(0.0, 0.0)] * n, edges=edges)


def rule_predecessors(oracle: FullRowRoutingTable, dist: np.ndarray) -> np.ndarray:
    """Per router, the highest-numbered ``u`` with ``dist[u] + w == dist[v]``;
    ``-9999`` for the source and for unreachable routers."""
    graph = oracle._graph.tocoo()
    u, v, w = graph.row, graph.col, graph.data
    tied = dist[u] + w == dist[v]
    pred = np.full(len(dist), -9999, dtype=np.int64)
    np.maximum.at(pred, v[tied], u[tied])
    return pred


# ---------------------------------------------------------------------------
# (a) Bridge-heavy families against the full-row oracle
# ---------------------------------------------------------------------------


def tree_links(labels: List[int], rng: random.Random) -> List[Tuple[int, int]]:
    """A random spanning tree over ``labels``."""
    return [(labels[i], labels[rng.randrange(i)]) for i in range(1, len(labels))]


def blob_chain_links(labels: List[int], rng: random.Random, blobs: int) -> List[Tuple[int, int]]:
    """Cycles (some with a chord) joined one after the next by one link each."""
    links: List[Tuple[int, int]] = []
    cuts = sorted(rng.sample(range(1, len(labels)), blobs - 1)) if blobs > 1 else []
    previous: List[int] = []
    for lo, hi in zip([0] + cuts, cuts + [len(labels)]):
        blob = labels[lo:hi]
        if len(blob) > 2:
            links.extend(zip(blob, blob[1:] + blob[:1]))
            if len(blob) > 3 and rng.random() < 0.5:
                links.append((blob[0], blob[len(blob) // 2]))
        elif len(blob) == 2:
            links.append((blob[0], blob[1]))
        if previous:
            links.append((rng.choice(previous), rng.choice(blob)))
        previous = blob
    return links


@st.composite
def bridge_heavy(draw) -> Topology:
    """A graph whose links are mostly bridges; float weights, no ties."""
    family = draw(st.sampled_from(["tree", "tree_plus", "forest", "blob_chain"]))
    n = draw(st.integers(2, 40))
    labels = draw(st.permutations(range(n)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "tree":
        links = tree_links(labels, rng)
    elif family == "tree_plus":
        links = tree_links(labels, rng)
        for _ in range(draw(st.integers(1, 4))):
            links.append((rng.choice(labels), rng.choice(labels)))
        links = [(a, b) for a, b in links if a != b]
    elif family == "forest":
        cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=3)))) if n > 2 else []
        links = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            links.extend(tree_links(labels[lo:hi], rng))
    else:
        links = blob_chain_links(labels, rng, draw(st.integers(1, max(1, n // 3))))
    return make_topology(n, [(a, b, rng.uniform(1.0, 100.0)) for a, b in links])


@settings(max_examples=200, deadline=None)
@given(topo=bridge_heavy(), data=st.data())
def test_bridge_heavy_calls_match_full_rows(topo, data):
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    routers = data.draw(
        st.lists(st.integers(0, topo.n_nodes - 1), min_size=2, max_size=10, unique=True)
    )
    calls = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["delay", "delay", "path", "path", "delays_from"]),
                st.sampled_from(routers),
                st.sampled_from(routers),
            ),
            min_size=1,
            max_size=50,
        )
    )
    for op, a, b in calls:
        assert_same_answer(table, oracle, op, a, b)


# ---------------------------------------------------------------------------
# (b) The tie rule on a tie-heavy grid; (c) it is scipy's on the test topologies
# ---------------------------------------------------------------------------


def tie_heavy_grid(side: int, seed: int) -> Topology:
    """A ``side`` x ``side`` grid of 1 ms and 2 ms links, with a pendant
    path hung off every fourth router so trees cross bridges."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    n = side * side
    for r in range(side):
        for c in range(side):
            node = r * side + c
            if c + 1 < side:
                edges.append((node, node + 1, float(rng.choice((1, 2)))))
            if r + 1 < side:
                edges.append((node, node + side, float(rng.choice((1, 2)))))
    for anchor in range(0, side * side, 4):
        for _ in range(rng.randrange(1, 3)):
            edges.append((anchor, n, float(rng.choice((1, 2)))))
            anchor, n = n, n + 1
    return make_topology(n, edges)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ties_go_to_the_highest_numbered_predecessor(seed):
    topo = tie_heavy_grid(6, seed)
    oracle = FullRowRoutingTable(topo)
    rows = dijkstra(oracle._graph, directed=False)
    table = RoutingTable(topo)
    tied = 0
    for src in range(topo.n_nodes):
        want = rule_predecessors(oracle, rows[src])
        graph = oracle._graph.tocoo()
        tied += int(np.sum(rows[src][graph.row] + graph.data == rows[src][graph.col])) - (
            topo.n_nodes - 1
        )
        for dst in random.Random(src).sample(range(topo.n_nodes), topo.n_nodes):
            if dst == src:
                continue
            path = table.path(src, dst)
            assert path[-2] == want[dst], (src, dst)
            assert table.delay(src, dst) == rows[src][dst]
    assert tied > 0  # the grid has equally short predecessors to choose among


def test_a_component_behind_a_bridge_is_grown_from_the_trees_distance():
    """Behind bridge 0-2 (2**20 ms), routes 2-3-5 and 2-4-5 differ by
    2**-40 ms: distinct when summed from zero, tied once summed from the
    bridge's far end at 2**20, where 5 takes predecessor 4 by the rule.
    Router 5 is asked for only after the source's tree exists, so the
    component {2, 3, 4, 5} is grown behind the bridge; its tree from its
    head at offset 0 is not the source's, so it must not be shared."""
    far = 2.0**20
    topo = make_topology(
        6,
        [(0, 1, 1.0), (0, 2, far), (2, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0 + 2.0**-40)],
    )
    oracle = FullRowRoutingTable(topo)
    table = RoutingTable(topo)
    assert table.path(0, 1) == [0, 1]
    assert table.path(0, 5) == [0, 2, 4, 5]
    assert table.delay(0, 5) == oracle.delay(0, 5) == far + 2.0
    assert rule_predecessors(oracle, oracle.delays_from(0))[5] == 4


@pytest.mark.parametrize("family", ["transit_stub", "waxman"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rule_is_scipys_on_the_random_call_topologies(family, seed):
    """On every topology ``test_random_calls_match_full_rows`` draws from,
    the rule gives scipy's predecessor row for every source, so comparing
    this table's paths with scipy's there is deterministic."""
    topo = topology(family, seed)
    oracle = FullRowRoutingTable(topo)
    rows, preds = dijkstra(oracle._graph, directed=False, return_predecessors=True)
    for src in range(topo.n_nodes):
        assert np.array_equal(rule_predecessors(oracle, rows[src]), preds[src]), src


# ---------------------------------------------------------------------------
# (d) Three epoch switches on the paper testbed, every routing call checked
# ---------------------------------------------------------------------------


class CheckedRouting:
    """The table under test, with every answer checked against the oracle."""

    def __init__(self, topo: Topology):
        self.table = RoutingTable(topo)
        self.oracle = FullRowRoutingTable(topo)
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        return getattr(self.table, name)

    def _checked(self, op: str) -> None:
        assert self.table.cache_size() == self.oracle.cache_size()
        self.calls[op] += 1

    def delay(self, a: int, b: int) -> float:
        got = self.table.delay(a, b)
        assert got == self.oracle.delay(a, b) and type(got) is float, (a, b)
        self._checked("delay")
        return got

    def path(self, a: int, b: int) -> List[int]:
        got = self.table.path(a, b)
        assert got == self.oracle.path(a, b), (a, b)
        self._checked("path")
        return got

    def delays_from(self, a: int) -> np.ndarray:
        got = self.table.delays_from(a)
        assert np.array_equal(got, self.oracle.delays_from(a)), a
        self._checked("delays_from")
        return got


def test_three_epoch_switches_on_the_paper_testbed():
    env = ExperimentEnv(n_hosts=128, seed=0, paper_scale=True)
    env.routing = checked = CheckedRouting(env.topology)
    membership = env.membership_from(zipf_membership(128, 32, random.Random(0)))
    fabric = env.build_fabric(membership, seed=0, trace=False)
    env.run_one_message_per_membership(fabric, isolate=True)
    rng = random.Random(7)
    for epoch in range(3):
        snapshot = membership.snapshot()
        for i in range(30):
            group = rng.choice(sorted(snapshot))
            sender = rng.choice(sorted(snapshot[group]))
            fabric.sim.schedule_at(
                fabric.sim.now + 2.0 * i, lambda f=fabric, s=sender, g=group: f.publish(s, g)
            )
        fabric.run(until=fabric.sim.now + 80.0)
        for _ in range(6):
            group = rng.choice(sorted(snapshot))
            host = rng.randrange(128)
            if host not in membership.members(group):
                membership.join(group, host)
            elif len(membership.members(group)) > 2:
                membership.leave(group, host)
        fabric = reconfigure(fabric, membership, seed=200 + epoch)
    fabric.run()
    assert checked.calls["delay"] > 1000 and checked.calls["path"] > 100
    assert checked.table.cache_size() > 88


# ---------------------------------------------------------------------------
# A link listed twice
# ---------------------------------------------------------------------------


def test_a_link_listed_twice_routes_at_the_sum():
    """Links 1-2 and 2-4 are each listed twice (once each way); like a
    sparse matrix built from the list, the table routes each at twice its
    delay, so the 1.5 ms detour 1-3-2 beats the 1 ms link 1-2."""
    topo = make_topology(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 3, 0.75), (3, 2, 0.75),
         (2, 4, 1.0), (4, 2, 1.0)],
    )
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    assert table.neighbors(1).count(2) == 1
    assert table.path(1, 2) == oracle.path(1, 2) == [1, 3, 2]
    assert table.delay(2, 4) == oracle.delay(2, 4) == 2.0
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            assert_same_answer(table, oracle, "delay", src, dst)
            assert_same_answer(table, oracle, "path", src, dst)


def test_a_link_listed_three_times_sums_in_list_order():
    """Three listings add left to right, as the oracle's sparse matrix
    adds them: (a + b) + c, one ulp away from a + (b + c) here."""
    a, b, c = 4.146485268696576, 10.275828746297652, 24.03342844568322
    topo = make_topology(2, [(1, 0, a), (0, 1, b), (0, 1, c)])
    assert (a + b) + c != a + (b + c)
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    assert table.delay(0, 1) == oracle.delay(0, 1) == (a + b) + c
