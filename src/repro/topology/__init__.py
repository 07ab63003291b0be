"""Network topology substrate.

The paper evaluates on a 10,000-router topology produced by GT-ITM [29]
(Zegura, Calvert, Bhattacharjee, "How to model an internetwork", INFOCOM'96).
GT-ITM is a C program we cannot ship or run here, so :mod:`repro.topology.gtitm`
reimplements its transit–stub model in pure Python: transit domains form the
backbone, each transit router attaches several stub domains, and link delays
derive from Euclidean distance between router coordinates.  The structural
properties the evaluation depends on — hierarchical locality and realistic
delay spread — are preserved (see DESIGN.md, substitution table).

:mod:`repro.topology.routing` provides shortest-path delays and paths over
the generated graph (Dijkstra over flat CSR arrays, one shortest-path
tree kept per solved source and grown only across the bridges its queries
need), and
:mod:`repro.topology.clusters` implements the paper's Section 4.1 host
attachment: hosts are grouped into similar-size clusters placed uniformly at
random, with hosts of a cluster close to each other.
"""

from repro.topology.clusters import Host, attach_hosts
from repro.topology.gtitm import Topology, TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable
from repro.topology.waxman import WaxmanParams, generate_waxman

__all__ = [
    "Host",
    "RoutingTable",
    "Topology",
    "TransitStubParams",
    "WaxmanParams",
    "attach_hosts",
    "generate_transit_stub",
    "generate_waxman",
]
