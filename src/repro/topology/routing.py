"""Shortest-path routing over a :class:`~repro.topology.gtitm.Topology`.

Messages in the evaluation travel on shortest (minimum-delay) paths, and any
router can forward (paper Section 4.1).  All-pairs shortest paths over a
10,000-router graph would need ~800 MB, so this module computes single-source
Dijkstra on demand with scipy's sparse-graph routines and keeps each solved
source; an experiment touches at most a few hundred distinct sources (hosts
and sequencing machines).

A routing row is one shortest-path tree: scipy's predecessor row alone, in
the narrowest signed integer type that holds every router id and scipy's
``-9999`` "no predecessor" sentinel (int16 at paper scale, 20 KB).  The
distance row is not kept.  scipy settles router ``v`` with
``dist[v] = dist[u] + w(u, v)`` and ``pred[v] = u``, so adding the edge
weights along the tree in path order from the source, ``0.0 + w1 + w2 +
...``, gives back the distance row bit for bit (DESIGN.md §4.2k).  A delay
once summed is kept under the tree that answered it, for the few routers
ever asked about.
"""

import math
from typing import Dict, List

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.topology.gtitm import Topology


class RoutingTable:
    """On-demand single-source shortest paths, one kept tree per source.

    Parameters
    ----------
    topology:
        The router graph to route over.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        n = topology.n_nodes
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v, d in topology.edges:
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((d, d))
        self._graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
        # Scalar reads through a memoryview return Python ints and floats,
        # several times faster than indexing the numpy arrays.
        self._indptr = memoryview(self._graph.indptr)
        self._indices = memoryview(self._graph.indices)
        self._weights = memoryview(self._graph.data)
        self._pred_dtype = np.int16 if n - 1 <= np.iinfo(np.int16).max else np.int32
        #: source router -> its shortest-path tree (predecessor per router)
        self._trees: Dict[int, memoryview] = {}
        #: source router -> {router: delay summed along the source's tree},
        #: for the routers asked about (hosts and machines, not all 10,000)
        self._summed: Dict[int, Dict[int, float]] = {}

    @property
    def n_nodes(self) -> int:
        """Number of routers in the underlying topology."""
        return self.topology.n_nodes

    def neighbors(self, router: int) -> List[int]:
        """Routers one link away from ``router``, ascending.

        Read off the sparse matrix this table already holds, so callers
        that need a handful of neighbor sets (machine assignment) do not
        build an adjacency dict over every router.
        """
        indptr = self._graph.indptr
        row = self._graph.indices[indptr[router] : indptr[router + 1]]
        return sorted(row.tolist())

    def _solve(self, src: int) -> np.ndarray:
        """Run Dijkstra from ``src``, keep its tree, return its distance row."""
        dist, pred = dijkstra(
            self._graph, directed=False, indices=src, return_predecessors=True
        )
        if src not in self._trees:
            self._trees[src] = memoryview(pred.astype(self._pred_dtype))
            self._summed[src] = {}
        return dist

    def _tree_delay(self, root: int, target: int) -> float:
        """Delay from ``root`` to ``target``, summed along ``root``'s tree."""
        pred = self._trees[root]
        indptr, indices, weights = self._indptr, self._indices, self._weights
        hops: List[float] = []
        node = target
        parent = pred[node]
        while parent >= 0:
            edge = indptr[node]
            while indices[edge] != parent:
                edge += 1
            hops.append(weights[edge])
            node = parent
            parent = pred[node]
        if node != root:
            return math.inf  # the walk stopped at the sentinel of an unreachable router
        # From the source end, the order scipy added them in: its row, bit for bit.
        total = 0.0
        for weight in reversed(hops):
            total += weight
        return total

    def delays_from(self, src: int) -> np.ndarray:
        """All-destination delay vector from router ``src``.

        Computed afresh on every call: distance rows are not kept.  The
        tree of ``src`` is kept, as for any other solved source.
        """
        return self._solve(src)

    def delay(self, src: int, dst: int) -> float:
        """Shortest-path delay between two routers (milliseconds)."""
        if src == dst:
            return 0.0
        # Prefer an already-solved tree in either direction.  The two
        # directions can differ in the last bit, so this order decides the
        # answer and must not change; for the same reason a summed delay is
        # kept under the tree that answered, never under the unordered pair.
        if src in self._trees:
            root, target = src, dst
        elif dst in self._trees:
            root, target = dst, src
        else:
            self._solve(src)
            root, target = src, dst
        summed = self._summed[root]
        delay = summed.get(target)
        if delay is None:
            delay = summed[target] = self._tree_delay(root, target)
        return delay

    def path(self, src: int, dst: int) -> List[int]:
        """Router sequence of the shortest path, inclusive of endpoints."""
        if src == dst:
            return [src]
        if src not in self._trees:
            self._solve(src)
        pred = self._trees[src]
        if pred[dst] < 0:
            raise ValueError(f"no path from {src} to {dst}")
        path = [dst]
        node = dst
        while node != src:
            node = pred[node]
            path.append(node)
        path.reverse()
        return path

    def cache_size(self) -> int:
        """Number of solved sources (one Dijkstra run each)."""
        return len(self._trees)
