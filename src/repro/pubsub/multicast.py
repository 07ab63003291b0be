"""Source-rooted shortest-path delivery trees for the distribution phase.

In the paper's three-phase model (ingress -> sequencing -> distribution),
"existing multicast delivery schemes can support ingress and distribution"
(Section 3), and the evaluation routes on shortest paths with every router
able to forward (Section 4.1).  A :class:`DeliveryTree` is the union of
shortest paths from a root router to the member routers: per-member delay
equals the unicast shortest-path delay, and the tree structure provides
link-stress accounting for the load benchmarks.
"""

from typing import Dict, Iterable, List, Set, Tuple

from repro.topology.routing import RoutingTable


class DeliveryTree:
    """Union of shortest paths from ``root`` to each router in ``members``.

    Parameters
    ----------
    routing:
        Shortest-path oracle over the topology.
    root:
        Router the distribution starts from (the machine hosting the last
        sequencing atom of a group's path, or the publisher for plain
        multicast).
    members:
        Destination routers (duplicates allowed and collapsed).
    """

    def __init__(self, routing: RoutingTable, root: int, members: Iterable[int]):
        self.routing = routing
        self.root = root
        self.members: List[int] = sorted(set(members))
        self._delay: Dict[int, float] = {}
        self._tree_edges: Set[Tuple[int, int]] = set()
        self._unicast_links = 0
        for member in self.members:
            path = routing.path(root, member)
            self._delay[member] = routing.delay(root, member)
            self._unicast_links += len(path) - 1
            for u, v in zip(path, path[1:]):
                self._tree_edges.add((u, v))

    def delays(self) -> Dict[int, float]:
        """Copy of the per-member delay map (each == the unicast shortest
        path's delay)."""
        return dict(self._delay)

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        """Directed tree edges (router pairs) used by at least one path."""
        return set(self._tree_edges)

    def link_count(self) -> int:
        """Number of distinct links the tree occupies."""
        return len(self._tree_edges)

    def unicast_link_count(self) -> int:
        """Total links if each member were reached by independent unicast.

        The ratio ``unicast_link_count / link_count`` is the classic
        multicast link-sharing gain.
        """
        return self._unicast_links
