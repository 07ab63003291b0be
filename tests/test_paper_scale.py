"""Smoke tests at the paper's full topology scale (10,000 routers).

The evaluation topology is cheap to build (coordinates + sparse edges)
and cheap to route over (on-demand single-source Dijkstra), so a
paper-scale end-to-end run belongs in the regular suite.
"""

import random

import pytest

from repro.experiments.common import ExperimentEnv
from repro.metrics.stretch import latency_stretch_by_destination
from repro.topology.gtitm import TransitStubParams
from repro.workloads.zipf import zipf_membership
from tests.test_topology import expected_nodes


@pytest.fixture(scope="module")
def paper_env():
    return ExperimentEnv(n_hosts=128, seed=0, paper_scale=True)


def test_paper_scale_topology_size(paper_env):
    params = TransitStubParams.paper_scale()
    assert paper_env.topology.n_nodes == expected_nodes(params)
    assert paper_env.topology.n_nodes >= 10_000


def test_paper_scale_end_to_end(paper_env):
    snapshot = zipf_membership(128, 8, rng=random.Random(1))
    fabric = paper_env.build_fabric(
        paper_env.membership_from(snapshot), seed=0, trace=False
    )
    paper_env.run_one_message_per_membership(fabric)
    assert fabric.pending_messages() == {}
    stretch = latency_stretch_by_destination(fabric)
    assert stretch
    assert all(v > 0 for v in stretch.values())


def test_paper_scale_hosts_on_distinct_routers(paper_env):
    routers = [h.router for h in paper_env.hosts]
    assert len(set(routers)) == len(routers)


def test_paper_scale_routing_sane(paper_env):
    routing = paper_env.routing
    a, b = paper_env.hosts[0].router, paper_env.hosts[-1].router
    assert routing.delay(a, b) > 0
    path = routing.path(a, b)
    assert path[0] == a and path[-1] == b
