"""The routing table's CSR build and ``delays_from`` rows against the numpy
bodies they replaced.

``_csr`` builds its three arrays from a dict keyed by link, and
``delays_from`` sums its row router by router, parent before child; the
runtime imports no numpy.  The numpy bodies they had before are kept here
as oracles: the arrays must be equal byte for byte, and every row bit for
bit, with the tree each call grows equal too.
"""

import random
from array import array
from typing import List, Tuple

import numpy as np
import pytest

from repro.experiments.common import ExperimentEnv
from repro.topology.gtitm import Topology, TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable, _csr

# ---------------------------------------------------------------------------
# The oracles: the numpy bodies as they stood before the rewrite
# ---------------------------------------------------------------------------


def oracle_csr(topology: Topology) -> Tuple[array, array, array]:
    n = topology.n_nodes
    listed = np.array(topology.edges, dtype=np.float64).reshape(-1, 3)
    ends = listed[:, :2].astype(np.int64)
    key = ends.min(axis=1) * n + ends.max(axis=1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else order
    weights = listed[order, 2]
    listings = np.diff(np.r_[first, len(key)])
    delay = weights[first]
    for k in range(1, int(listings.max(initial=1))):
        more = listings > k
        delay[more] += weights[first[more] + k]
    lo, hi = np.divmod(key[first], n)
    link = lo != hi
    rows = np.concatenate((lo, hi[link]))
    cols = np.concatenate((hi, lo[link]))
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return (
        array("i", indptr.tobytes()),
        array("i", cols[order].astype(np.int32).tobytes()),
        array("d", np.concatenate((delay, delay[link]))[order].tobytes()),
    )


def oracle_delays_from(table: RoutingTable, src: int) -> np.ndarray:
    pred = table._tree_to(src, src)
    comp, head, up = table._comp, table._head, table._up
    c = comp[src]
    while up[c] >= 0:
        if pred[up[c]] < 0:
            table._enter(src, pred, head[c], up[c])
        c = comp[up[c]]
    heads = np.frombuffer(table._head, dtype=np.int32)
    ups = np.frombuffer(table._up, dtype=np.int32)
    rows = np.frombuffer(pred, dtype=pred.typecode)
    end = c + 1 + int(np.argmax(np.r_[ups[c + 1 :], -1] < 0))
    below = np.arange(c + 1, end)
    below = below[(rows[heads[below]] < 0) & (heads[below] != src)]
    size = np.bincount(np.frombuffer(table._comp, dtype=np.int32))[below]
    rows[heads[below[size == 1]]] = ups[below[size == 1]]
    for d in below[size > 1].tolist():
        table._enter(src, pred, up[d], head[d])
    n = table.n_nodes
    indptr = np.frombuffer(table._indptr, dtype=np.int32)
    links = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n
    links += np.frombuffer(table._indices, dtype=np.int32)
    parent = np.frombuffer(pred, dtype=pred.typecode).astype(np.int64)
    child = np.flatnonzero(parent >= 0)
    hop = np.frombuffer(table._weights)[np.searchsorted(links, child * n + parent[child])]
    jump = np.where(parent >= 0, parent, np.arange(n))
    depth = (parent >= 0).astype(np.int64)
    while depth[jump].any():
        depth += depth[jump]
        jump = jump[jump]
    by_depth = np.argsort(depth[child])
    child, hop = child[by_depth], hop[by_depth]
    cuts = np.flatnonzero(np.diff(depth[child])) + 1
    row = np.full(n, np.inf)
    row[src] = 0.0
    for level, step in zip(np.split(child, cuts), np.split(hop, cuts)):
        row[level] = row[parent[level]] + step
    return row


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def assert_same_csr(topology: Topology) -> None:
    for mine, theirs in zip(_csr(topology), oracle_csr(topology)):
        assert mine.typecode == theirs.typecode
        assert mine.tobytes() == theirs.tobytes()


def assert_same_rows(topology: Topology, sources: List[int]) -> None:
    """Each source's row, on two tables fed the same calls: bit for bit,
    and the trees the calls grew equal."""
    table, oracle = RoutingTable(topology), RoutingTable(topology)
    for src in sources:
        row = table.delays_from(src)
        want = oracle_delays_from(oracle, src)
        assert isinstance(row, array) and row.typecode == "d"
        assert row.tobytes() == want.tobytes(), src
        assert table._trees[src] == oracle._trees[src], src
    assert table._trees == oracle._trees
    assert table._shared == oracle._shared


def doubled_links() -> Topology:
    """Links 1-2 and 2-4 listed twice, 0-1 three times, and a self-loop."""
    edges = [
        (0, 1, 4.146485268696576), (1, 0, 10.275828746297652),
        (0, 1, 24.03342844568322), (1, 2, 1.0), (2, 1, 1.0), (1, 3, 0.75),
        (3, 2, 0.75), (2, 4, 1.0), (4, 2, 1.0), (3, 3, 2.5), (4, 5, 0.5),
    ]
    return Topology(n_nodes=7, coords=[(0.0, 0.0)] * 7, edges=edges)


def test_the_doubled_link_edge_list():
    topology = doubled_links()
    assert_same_csr(topology)
    assert_same_rows(topology, list(range(topology.n_nodes)))
    table = RoutingTable(topology)
    assert table.neighbors(3) == [1, 2, 3]
    assert table.delays_from(6)[6] == 0.0 and table.delays_from(6)[0] == float("inf")


def test_an_empty_edge_list():
    topology = Topology(n_nodes=3, coords=[(0.0, 0.0)] * 3, edges=[])
    assert_same_csr(topology)
    assert list(RoutingTable(topology).delays_from(1)) == [float("inf"), 0.0, float("inf")]


@pytest.mark.parametrize("seed", range(64))
def test_small_seeds(seed):
    """24 sources per topology, in random order, so that a row is asked of
    trees grown by the rows before it."""
    topology = generate_transit_stub(TransitStubParams.small(), seed=seed)
    assert_same_csr(topology)
    assert_same_rows(topology, random.Random(seed).sample(range(topology.n_nodes), 24))


def test_paper_scale_seed_0():
    """The central sequencer's calls: one row per host router."""
    env = ExperimentEnv(n_hosts=128, seed=0, paper_scale=True)
    assert_same_csr(env.topology)
    routers = sorted({host.router for host in env.hosts})
    assert len(routers) > 64
    assert_same_rows(env.topology, routers)
