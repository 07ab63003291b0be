"""Shortest-path routing over a :class:`~repro.topology.gtitm.Topology`.

Messages in the evaluation travel on shortest (minimum-delay) paths, and any
router can forward (paper Section 4.1).  All-pairs shortest paths over a
10,000-router graph would need ~800 MB, so this module runs single-source
Dijkstra on demand, in plain Python over flat CSR arrays, and keeps each
solved source's tree; an experiment touches at most a few hundred distinct
sources (hosts and sequencing machines).

A routing row is one shortest-path tree: a predecessor per router, in the
narrowest signed integer type that holds every router id and the ``-9999``
"no predecessor" sentinel (int16 at paper scale, 20 KB).  The distance row
is not kept.  Dijkstra settles router ``v`` with ``dist[v] = dist[u] +
w(u, v)`` and ``pred[v] = u``, so adding the edge weights along the tree in
path order from the source, ``0.0 + w1 + w2 + ...``, gives back the
distance row bit for bit (DESIGN.md §4.2k).  A delay once summed is kept
under the tree that answered it, for the few routers ever asked about.

A tree grows lazily, one 2-edge-connected component at a time, across
bridges (DESIGN.md §4.2o).  A bridge is a link whose removal splits the
graph; at paper scale every stub domain hangs off its transit router by
one.  A new source settles its own component; a query for a router the
tree lacks crosses the one uncrossed bridge on the way to it and settles
the component beyond, until the router is in.  The region behind a bridge
is reachable only through it, so Dijkstra there, seeded at the tree's sum
to the far end, gives each router the distance a full Dijkstra computes,
bit for bit.  A component entered at its head has one tree for every
source unless rounding at some offset could reorder two sums in it; such
a tree is grown once and copied.  Which components a tree holds is
implicit in its row: a component it lacks has no router with a
predecessor.

Ties: among equally short predecessors a router takes the highest-numbered
one.  Distances do not depend on the choice; ``path`` and the delivery-tree
link counts do.
"""

import heapq
import math
from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

from repro.topology.gtitm import Topology

#: predecessor of a source, and of every router its tree has not reached
NO_PRED = -9999
#: unit roundoff of a float64 addition
_UNIT = 2.0**-53
#: the shared tree of a component that is its head alone
_ALONE: Tuple[array, array] = (array("i"), array("i"))


def _csr(topology: Topology) -> Tuple[array, array, array]:
    """``(indptr, indices, weights)`` of the undirected graph, rows sorted.

    A link listed more than once is one link whose weight is the sum of
    its listings, in list order, so it routes at that sum.
    """
    n = topology.n_nodes
    # Link (low, high) as the key low * n + high.
    summed: Dict[int, float] = {}
    for u, v, delay in topology.edges:
        link = u * n + v if u <= v else v * n + u
        if link in summed:
            summed[link] = float(summed[link]) + float(delay)
        else:
            summed[link] = delay
    # Each link both ways, as row * n + col: sorted, the keys are the rows
    # in order, each row's neighbors ascending.
    both = {(link % n) * n + link // n: delay for link, delay in summed.items()}
    both.update(summed)
    order = sorted(both)
    degree = [0] * n
    for link in order:
        degree[link // n] += 1
    return (
        array("i", accumulate(degree, initial=0)),
        array("i", [link % n for link in order]),
        array("d", map(both.__getitem__, order)),
    )


def _bridge_forest(
    n: int, indptr: array, indices: array
) -> Tuple[array, array, array, array, array]:
    """One iterative Tarjan pass: ``(comp, tin, tout, head, up)``.

    ``tin[x]`` is router ``x``'s depth-first preorder number and
    ``tout[x]`` the last one inside its subtree.  ``comp[x]`` numbers the
    2-edge-connected component of ``x`` (the graph less its bridges).
    Component ``c`` is entered first at router ``head[c]``, from router
    ``up[c]`` across its parent bridge, or ``-1`` when ``c`` begins a
    connected piece.  The components under ``c`` in the bridge forest are
    exactly the routers numbered ``tin[head[c]] .. tout[head[c]]``.
    """
    tin = array("i", [-1]) * n
    tout = array("i", [0]) * n
    low = array("i", [0]) * n
    parent = array("i", [-1]) * n
    order = array("i", [0]) * n
    scan = array("i", indptr)
    clock = 0
    for start in range(n):
        if tin[start] >= 0:
            continue
        tin[start] = low[start] = clock
        order[clock] = start
        clock += 1
        stack = [start]
        while stack:
            u = stack[-1]
            edge = scan[u]
            if edge < indptr[u + 1]:
                scan[u] = edge + 1
                v = indices[edge]
                if tin[v] < 0:
                    parent[v] = u
                    tin[v] = low[v] = clock
                    order[clock] = v
                    clock += 1
                    stack.append(v)
                elif tin[v] < low[u] and v != parent[u]:
                    low[u] = tin[v]
            else:
                stack.pop()
                tout[u] = clock - 1
                p = parent[u]
                if p >= 0 and low[u] < low[p]:
                    low[p] = low[u]
    comp = array("i", [0]) * n
    head = array("i")
    up = array("i")
    for u in order:
        p = parent[u]
        if p < 0 or low[u] > tin[p]:  # a piece's first router, or across a bridge
            comp[u] = len(head)
            head.append(u)
            up.append(p)
        else:
            comp[u] = comp[p]
    return comp, tin, tout, head, up


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
        self._indptr, self._indices, self._weights = _csr(topology)
        self._comp, self._tin, self._tout, self._head, self._up = _bridge_forest(
            n, self._indptr, self._indices
        )
        self._pred_code = "h" if n - 1 <= 32767 else "i"
        #: bounds every shortest-path delay, and so every sum Dijkstra forms
        self._total_weight = math.fsum(self._weights) / 2
        #: component -> its tree from its head, shared by the sources that
        #: enter it there (see ``_shared_tree``)
        self._shared: Dict[int, Optional[Tuple[array, array]]] = {}
        #: source router -> its shortest-path tree (predecessor per router),
        #: grown as far as queries have needed
        self._trees: Dict[int, array] = {}
        #: source router -> {router: delay summed along the source's tree},
        #: for the routers asked about (hosts and machines, not all 10,000)
        self._summed: Dict[int, Dict[int, float]] = {}

    @property
    def n_nodes(self) -> int:
        """Number of routers in the underlying topology."""
        return self.topology.n_nodes

    def neighbors(self, router: int) -> List[int]:
        """Routers one link away from ``router``, ascending.

        Read off the adjacency this table already holds, so callers that
        need a handful of neighbor sets (machine assignment) do not build
        an adjacency dict over every router.
        """
        return self._indices[self._indptr[router] : self._indptr[router + 1]].tolist()

    def _dijkstra(
        self, seed: int, dist: float, region: int
    ) -> Tuple[Dict[int, int], Dict[int, float]]:
        """Dijkstra from ``seed`` at ``dist``, inside component ``region``.

        Returns each settled router's predecessor, in settle order, and
        the distance of every router reached.
        """
        indptr, indices, weights, comp = self._indptr, self._indices, self._weights, self._comp
        pop, push = heapq.heappop, heapq.heappush
        best = {seed: dist}
        tentative = best.get
        via = {seed: NO_PRED}
        settled: Dict[int, int] = {}
        heap = [(dist, seed)]
        while heap:
            d, u = pop(heap)
            if u in settled:
                continue
            settled[u] = via[u]
            for edge in range(indptr[u], indptr[u + 1]):
                v = indices[edge]
                if v in settled or comp[v] != region:
                    continue
                nd = d + weights[edge]
                old = tentative(v)
                if old is None or nd < old:
                    best[v] = nd
                    via[v] = u
                    push(heap, (nd, v))
                elif nd == old and u > via[v]:  # ties: the highest-numbered predecessor
                    via[v] = u
        return settled, best

    def _shared_tree(self, c: int) -> Optional[Tuple[array, array]]:
        """Component ``c``'s tree grown from its head, ``(routers,
        predecessors)`` without the head, when every source entering ``c``
        at its head grows exactly this tree; else ``None``.

        A source enters at some offset ``D``, its sum to the head, and
        Dijkstra's predecessors inside ``c`` depend on ``D`` only through
        rounding.  Grown here at offset 0, the tree is shared when every
        router's predecessor beats each other neighbor in ``c`` by more
        than rounding can move: each side is a sum of at most ``|c|``
        additions below ``2 W`` (``W`` the total link weight, which bounds
        ``D`` and any path in ``c``), so the margin must exceed ``8 |c| u
        W`` (``u`` = 2**-53).  Then the offset-``D`` sums along this tree
        satisfy Dijkstra's equations with a unique minimum at every
        router, so they are its distances and this tree is its tree, for
        any ``D``.  (Routers outside ``c`` are reachable only through it, so
        they are farther and never a predecessor inside it.)  A component
        with a tie or a near-tie is grown per source instead; one that is
        its head alone has nothing to share or to keep.
        """
        if c in self._shared:
            return self._shared[c]
        indptr, indices, weights, comp = self._indptr, self._indices, self._weights, self._comp
        head = self._head[c]
        if all(comp[indices[edge]] != c for edge in range(indptr[head], indptr[head + 1])):
            return _ALONE
        settled, best = self._dijkstra(head, 0.0, c)
        rounding = 8 * len(settled) * _UNIT * self._total_weight
        shared: Optional[Tuple[array, array]] = None
        if all(
            indices[edge] == parent
            or comp[indices[edge]] != c
            or best[indices[edge]] + weights[edge] - best[v] > rounding
            for v, parent in settled.items()
            if parent != NO_PRED
            for edge in range(indptr[v], indptr[v + 1])
        ):
            routers = [v for v, parent in settled.items() if parent != NO_PRED]
            shared = (
                array("i", routers),
                array(self._pred_code, [settled[v] for v in routers]),
            )
        self._shared[c] = shared
        return shared

    def _enter(self, root: int, pred: array, near: int, far: int) -> None:
        """Settle the component beyond bridge ``near``-``far`` in ``root``'s tree."""
        c = self._comp[far]
        pred[far] = near
        shared = self._shared_tree(c) if far == self._head[c] else None
        if shared is not None:
            for v, parent in zip(*shared):
                pred[v] = parent
            return
        # Beyond a bridge, a router's distance builds on the tree's sum to
        # the far end: the region behind it is reachable only through it.
        settled, _ = self._dijkstra(far, self._tree_delay(root, far), c)
        for v, parent in settled.items():
            pred[v] = parent
        pred[far] = near

    def _next_bridge(self, root: int, pred: array, target: int) -> Optional[Tuple[int, int]]:
        """The uncrossed bridge ``(near, far)`` on the way from ``root``'s
        tree to ``target``; ``None`` when no path exists.

        The tree holds whole components, connected in the bridge forest
        and including the source's.  From the target's component walk up
        the forest: a component the tree holds, below the lowest common
        ancestor with the source's, means the bridge down from it; else
        the tree stops below that ancestor on the source's side, and the
        bridge leads up.
        """
        comp, tin, tout, head, up = self._comp, self._tin, self._tout, self._head, self._up
        root_in, root_comp = tin[root], comp[root]
        c, child = comp[target], -1
        while True:
            h = head[c]
            if tin[h] <= root_in <= tout[h] or pred[h] >= 0:
                break
            if up[c] < 0:
                return None  # another connected piece
            c, child = comp[up[c]], c
        if c == root_comp or pred[head[c]] >= 0:
            return up[child], head[child]
        c = root_comp
        while pred[up[c]] >= 0:
            c = comp[up[c]]
        return head[c], up[c]

    def _tree_to(self, root: int, target: int) -> array:
        """``root``'s tree, solved if new and grown until it holds ``target``
        if any path reaches it."""
        pred = self._trees.get(root)
        if pred is None:
            pred = self._trees[root] = array(self._pred_code, [NO_PRED]) * self.n_nodes
            self._summed[root] = {}
            settled, _ = self._dijkstra(root, 0.0, self._comp[root])
            for v, parent in settled.items():
                pred[v] = parent
        while target != root and pred[target] < 0:
            bridge = self._next_bridge(root, pred, target)
            if bridge is None:
                break
            self._enter(root, pred, *bridge)
        return pred

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
        # From the source end, the order Dijkstra added them in: its row, bit for bit.
        total = 0.0
        for weight in reversed(hops):
            total += weight
        return total

    def delays_from(self, src: int) -> array:
        """All-destination delay vector from router ``src``.

        Grows ``src``'s tree into every component it reaches and returns
        each router's delay as its predecessor's plus the link, the sum
        ``delay`` forms along the tree, bit for bit.  The row is not kept;
        the grown tree is, as ``src``'s.
        """
        pred = self._tree_to(src, src)
        comp, head, up = self._comp, self._head, self._up
        # Up the bridge forest first, each ancestor entered from below ...
        c = comp[src]
        while up[c] >= 0:
            if pred[up[c]] < 0:
                self._enter(src, pred, head[c], up[c])
            c = comp[up[c]]
        # ... then down.  A piece's components are numbered in preorder from
        # its first, so a component's parent is in before it is.
        for d in range(c + 1, len(head)):
            if up[d] < 0:
                break
            if pred[head[d]] < 0 and head[d] != src:
                self._enter(src, pred, up[d], head[d])
        # A router's delay is its predecessor's plus the link, the sum
        # ``delay`` forms along the tree, bit for bit: each router is summed
        # after the routers above it, walking up to the nearest one done.
        indptr, indices, weights = self._indptr, self._indices, self._weights
        row = array("d", [math.inf]) * self.n_nodes
        row[src] = 0.0
        done = bytearray(self.n_nodes)
        done[src] = 1
        for start in range(self.n_nodes):
            if done[start] or pred[start] < 0:
                continue
            chain: List[int] = []
            v = start
            while not done[v]:
                chain.append(v)
                v = pred[v]
            total = row[v]
            for v in reversed(chain):
                parent = pred[v]
                edge = indptr[v]
                while indices[edge] != parent:
                    edge += 1
                total += weights[edge]
                row[v] = total
                done[v] = 1
        return row

    def delays_to(self, src: int, targets: Iterable[int]) -> List[float]:
        """``delays_from(src)[t]`` for each router ``t`` of ``targets``, bit
        for bit, growing ``src``'s tree only as far as they need.

        Each is summed along ``src``'s tree as ``delay`` sums it, and kept
        under ``src`` as ``delay`` keeps what it sums.  The tree does not
        depend on how far it is grown: a component is entered through its
        one bridge, at the tree's own sum to the far end.
        """
        self._tree_to(src, src)
        summed = self._summed[src]
        delays = []
        for target in targets:
            delay = summed.get(target)
            if delay is None:
                self._tree_to(src, target)
                delay = summed[target] = self._tree_delay(src, target)
            delays.append(delay)
        return delays

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
            root, target = src, dst
        summed = self._summed.get(root)
        delay = None if summed is None else summed.get(target)
        if delay is None:
            self._tree_to(root, target)
            delay = self._summed[root][target] = self._tree_delay(root, target)
        return delay

    def path(self, src: int, dst: int) -> List[int]:
        """Router sequence of the shortest path, inclusive of endpoints."""
        if src == dst:
            return [src]
        pred = self._tree_to(src, dst)
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
        """Number of solved sources (one tree each, however far grown)."""
        return len(self._trees)
