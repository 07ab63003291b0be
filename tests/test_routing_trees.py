"""Differential tests of tree-only routing rows against full distance rows.

``FullRowRoutingTable`` is the routing table this repository shipped until a
solved source was kept as its shortest-path tree alone: it keeps scipy's
float64 distance row *and* its predecessor row per source.  It is kept
here, verbatim in behaviour, as the oracle.  On any sequence of ``delay``,
``path`` and ``delays_from`` calls the two must give bitwise-equal delays,
equal paths and equal ``cache_size()``: which rows a table has solved
decides which tree answers a later ``delay``, and the two directions of a
pair can differ in the last bit.

The goldens below were recorded on the full-row commit and verified to pass
against its ``src``; the memory guard fails there.
"""

import functools
import hashlib
import math
import random
import tracemalloc
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.experiments.common import ExperimentEnv
from repro.topology.gtitm import Topology, TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable
from repro.topology.waxman import WaxmanParams, generate_waxman
from repro.workloads.zipf import zipf_membership


class FullRowRoutingTable:
    """The full-row table: a distance row and a predecessor row per source."""

    def __init__(self, topology: Topology):
        n = topology.n_nodes
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v, d in topology.edges:
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((d, d))
        self._graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._dist_cache: Dict[int, np.ndarray] = {}
        self._pred_cache: Dict[int, np.ndarray] = {}

    def _run_dijkstra(self, src: int) -> None:
        dist, pred = dijkstra(
            self._graph, directed=False, indices=src, return_predecessors=True
        )
        self._dist_cache[src] = dist
        self._pred_cache[src] = pred

    def delays_from(self, src: int) -> np.ndarray:
        if src not in self._dist_cache:
            self._run_dijkstra(src)
        return self._dist_cache[src]

    def delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        if src in self._dist_cache:
            return float(self._dist_cache[src][dst])
        if dst in self._dist_cache:
            return float(self._dist_cache[dst][src])
        return float(self.delays_from(src)[dst])

    def path(self, src: int, dst: int) -> List[int]:
        if src == dst:
            return [src]
        if src not in self._pred_cache:
            self._run_dijkstra(src)
        pred = self._pred_cache[src]
        if pred[dst] < 0:
            raise ValueError(f"no path from {src} to {dst}")
        path = [dst]
        node = dst
        while node != src:
            node = int(pred[node])
            path.append(node)
        path.reverse()
        return path

    def cache_size(self) -> int:
        return len(self._dist_cache)


@functools.lru_cache(maxsize=None)
def topology(family: str, seed: int) -> Topology:
    if family == "transit_stub":
        return generate_transit_stub(TransitStubParams.small(), seed=seed)
    return generate_waxman(WaxmanParams(n_nodes=120), seed=seed)


def two_components() -> Topology:
    """Routers 0-2 and 3-5, with no link between the two halves."""
    return Topology(
        n_nodes=6,
        coords=[(float(i), 0.0) for i in range(6)],
        edges=[(0, 1, 1.0), (1, 2, 2.5), (3, 4, 1.5), (4, 5, 0.75)],
    )


def assert_same_answer(table, oracle, op: str, a: int, b: int) -> None:
    if op == "delay":
        got, want = table.delay(a, b), oracle.delay(a, b)
        assert got == want and type(got) is float, (a, b)
    elif op == "path":
        try:
            want_path = oracle.path(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                table.path(a, b)
        else:
            assert table.path(a, b) == want_path
    else:
        assert np.array_equal(table.delays_from(a), oracle.delays_from(a))
    assert table.cache_size() == oracle.cache_size()


# ---------------------------------------------------------------------------
# Random call sequences against the oracle
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["transit_stub", "waxman"]),
    seed=st.integers(0, 3),
    data=st.data(),
)
def test_random_calls_match_full_rows(family, seed, data):
    topo = topology(family, seed)
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    # Few distinct routers, so later calls meet already-solved trees.
    routers = data.draw(
        st.lists(st.integers(0, topo.n_nodes - 1), min_size=2, max_size=8, unique=True)
    )
    calls = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["delay", "delay", "delay", "path", "delays_from"]),
                st.sampled_from(routers),
                st.sampled_from(routers),
            ),
            min_size=1,
            max_size=40,
        )
    )
    for op, a, b in calls:
        assert_same_answer(table, oracle, op, a, b)


def test_asymmetry_witness_answers_from_the_solved_tree():
    """Both directions of a pair whose trees disagree in the last bit.

    Each direction must answer from its own source's tree once both are
    solved; a memo keyed by the unordered pair would repeat the first
    answer for the second.
    """
    topo = topology("transit_stub", 0)
    a, b = 0, 28
    dist = dijkstra(FullRowRoutingTable(topo)._graph, directed=False, indices=[a, b])
    assert dist[0][b] != dist[1][a]  # the witness
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    for op, x, y in [
        ("delay", a, b),  # solves a, answers from a's tree
        ("delay", b, a),  # b unsolved: a's tree answers again
        ("path", b, a),  # solves b
        ("delay", b, a),  # now b's tree answers
        ("delay", a, b),
        ("delay", b, 7),
        ("delay", 7, b),
    ]:
        assert_same_answer(table, oracle, op, x, y)
    assert table.delay(a, b) == dist[0][b]
    assert table.delay(b, a) == dist[1][a]


def test_disconnected_routers_have_no_delay_and_no_path():
    topo = two_components()
    table, oracle = RoutingTable(topo), FullRowRoutingTable(topo)
    for op, a, b in [
        ("delay", 0, 4), ("delay", 4, 0), ("delay", 0, 2), ("delay", 5, 3),
        ("path", 0, 5), ("path", 3, 5), ("delays_from", 4, 4), ("delay", 1, 4),
    ]:
        assert_same_answer(table, oracle, op, a, b)
    table = RoutingTable(topo)
    assert table.delay(0, 4) == math.inf
    assert table.delay(4, 0) == math.inf  # 0 solved: walks 0's tree from 4
    with pytest.raises(ValueError):
        table.path(0, 5)
    with pytest.raises(ValueError):
        table.path(5, 1)


# ---------------------------------------------------------------------------
# Paper scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_env():
    return ExperimentEnv(n_hosts=128, seed=0, paper_scale=True)


def test_paper_scale_rows_bitwise(paper_env):
    """10 sources x every destination, summed along each source's tree."""
    topo = paper_env.topology
    table = RoutingTable(topo)
    sources = random.Random(5).sample(range(topo.n_nodes), 10)
    rows = dijkstra(FullRowRoutingTable(topo)._graph, directed=False, indices=sources)
    for src, row in zip(sources, rows):
        table.path(src, src ^ 1)  # solve src
        got = np.array([table.delay(src, dst) for dst in range(topo.n_nodes)])
        assert np.array_equal(got, row), src
    assert table.cache_size() == len(sources)


def test_paper_scale_row_memory_per_source(paper_env):
    """A solved source costs its predecessor row: 20 KB as int16."""
    table = RoutingTable(paper_env.topology)
    table.path(0, 1)  # first-solve allocations are not per source
    sources = range(100, 120)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src in sources:
            table.path(src, 0)
            table.delay(src, 0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.cache_size() == 1 + len(sources)
    assert grown / len(sources) <= 24 * 1024


#: recorded on the full-row commit
WARMED_CHANNEL_DIGEST = "a036152f31e714b17e9065745fce24106fec9b1d56df4ccc06050265a707383e"
WARMED_DISTRIBUTION = (67597, 223689, 18665440)


def test_warmed_paper_scale_fabric_unchanged(paper_env):
    """Every channel delay of the benchmark's warmed deployment, and the
    distribution accounting its warm-up leaves behind."""
    membership = paper_env.membership_from(zipf_membership(128, 32, random.Random(0)))
    fabric = paper_env.build_fabric(membership, seed=0, trace=False)
    paper_env.run_one_message_per_membership(fabric, isolate=True)
    digest = hashlib.sha256()
    for (src, dst), channel in sorted(
        fabric.network.channels.items(), key=lambda item: repr(item[0])
    ):
        digest.update(repr((src, dst, repr(channel.delay))).encode())
    assert paper_env.routing.cache_size() == 88
    assert digest.hexdigest() == WARMED_CHANNEL_DIGEST
    assert (
        fabric.distribution_tree_links,
        fabric.distribution_unicast_links,
        fabric.distribution_tree_bytes,
    ) == WARMED_DISTRIBUTION
