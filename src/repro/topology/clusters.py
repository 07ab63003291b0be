"""Clustered attachment of end hosts to the router topology.

The paper (Section 4.1) attaches hosts "by grouping them into similar size
clusters, then distributing each cluster uniformly at random through the
topology.  Nodes in the same cluster are placed close to each other",
modelling online communities gathering around low-latency servers.

We realize this by choosing, per cluster, a uniformly random *stub* router as
the cluster anchor and attaching the cluster's hosts to the geometrically
nearest routers around that anchor (one host per router).  Access links get
a small distance-derived delay.
"""

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.topology.gtitm import Topology


@dataclass(frozen=True)
class Host:
    """An end host attached to the router topology.

    Attributes
    ----------
    host_id:
        Dense id ``0 .. n_hosts-1``.
    router:
        The router this host hangs off.
    access_delay:
        One-way delay of the host's access link (milliseconds).
    cluster:
        Index of the cluster the host belongs to.
    """

    host_id: int
    router: int
    access_delay: float
    cluster: int


def _split_into_clusters(n_hosts: int, cluster_size: int) -> List[int]:
    """Sizes of similar-size clusters covering ``n_hosts`` hosts."""
    if cluster_size <= 0:
        raise ValueError(f"cluster_size must be positive, got {cluster_size}")
    n_clusters = max(1, round(n_hosts / cluster_size))
    base, remainder = divmod(n_hosts, n_clusters)
    return [base + (1 if i < remainder else 0) for i in range(n_clusters)]


def attach_hosts(
    topology: Topology,
    n_hosts: int,
    cluster_size: int = 8,
    access_delay: float = 1.0,
    rng: Optional[random.Random] = None,
) -> List[Host]:
    """Attach ``n_hosts`` hosts to ``topology`` in similar-size clusters.

    Parameters
    ----------
    topology:
        Router graph to attach to.
    n_hosts:
        Number of end hosts.
    cluster_size:
        Target hosts per cluster (clusters differ by at most one host).
    access_delay:
        One-way host access-link delay, identical for all hosts.
    rng:
        Random source; a fresh ``Random(0)`` when omitted.

    Returns
    -------
    list of :class:`Host`, ordered by ``host_id``.
    """
    if n_hosts <= 0:
        raise ValueError(f"n_hosts must be positive, got {n_hosts}")
    rng = rng or random.Random(0)
    stub_routers = topology.stub_routers() or list(range(topology.n_nodes))
    coords = topology.coords

    hosts: List[Host] = []
    used_routers: set = set()
    next_host_id = 0
    for cluster_index, size in enumerate(_split_into_clusters(n_hosts, cluster_size)):
        anchor = rng.choice(stub_routers)
        ax, ay = coords[anchor]
        # Routers sorted by geometric distance to the anchor; attach one host
        # per router so cluster members are close but not co-located.
        by_distance = sorted(
            range(topology.n_nodes),
            key=lambda r: math.hypot(coords[r][0] - ax, coords[r][1] - ay),
        )
        picked: List[int] = []
        for router in by_distance:
            if router not in used_routers:
                picked.append(router)
                used_routers.add(router)
            if len(picked) == size:
                break
        if len(picked) < size:
            raise ValueError(
                f"topology too small: {n_hosts} hosts need {n_hosts} distinct "
                f"routers, topology has {topology.n_nodes}"
            )
        for router in picked:
            hosts.append(
                Host(
                    host_id=next_host_id,
                    router=router,
                    access_delay=access_delay,
                    cluster=cluster_index,
                )
            )
            next_host_id += 1
    return hosts
