"""Shortest-path routing over a :class:`~repro.topology.gtitm.Topology`.

Messages in the evaluation travel on shortest (minimum-delay) paths, and any
router can forward (paper Section 4.1).  All-pairs shortest paths over a
10,000-router graph would need ~800 MB, so this module computes single-source
Dijkstra on demand with scipy's sparse-graph routines and caches per-source
rows; an experiment touches at most a few hundred distinct sources (hosts and
sequencing machines).
"""

from typing import Dict, List

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.topology.gtitm import Topology


class RoutingTable:
    """On-demand single-source shortest paths with caching.

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
        self._dist_cache: Dict[int, np.ndarray] = {}
        self._pred_cache: Dict[int, np.ndarray] = {}

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

    def _run_dijkstra(self, src: int) -> None:
        dist, pred = dijkstra(
            self._graph, directed=False, indices=src, return_predecessors=True
        )
        self._dist_cache[src] = dist
        self._pred_cache[src] = pred

    def delays_from(self, src: int) -> np.ndarray:
        """All-destination delay vector from router ``src`` (cached)."""
        if src not in self._dist_cache:
            self._run_dijkstra(src)
        return self._dist_cache[src]

    def delay(self, src: int, dst: int) -> float:
        """Shortest-path delay between two routers (milliseconds)."""
        if src == dst:
            return 0.0
        # Prefer an already-cached source row in either direction.
        if src in self._dist_cache:
            return float(self._dist_cache[src][dst])
        if dst in self._dist_cache:
            return float(self._dist_cache[dst][src])
        return float(self.delays_from(src)[dst])

    def path(self, src: int, dst: int) -> List[int]:
        """Router sequence of the shortest path, inclusive of endpoints."""
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

    def nearest(self, src: int, candidates: List[int]) -> int:
        """The candidate router closest to ``src`` by shortest-path delay."""
        if not candidates:
            raise ValueError("candidates must be non-empty")
        dist = self.delays_from(src)
        best = min(candidates, key=lambda c: dist[c])
        return best

    def cache_size(self) -> int:
        """Number of cached single-source rows (for memory accounting)."""
        return len(self._dist_cache)
