"""Shared fixtures for the test suite.

The expensive substrate (topology + routing + hosts) is session-scoped;
tests build cheap per-test memberships/fabrics on top of it.
"""

import random

import pytest

from repro.experiments.common import ExperimentEnv
from repro.pubsub.membership import GroupMembership
from repro.topology.clusters import attach_hosts
from repro.topology.gtitm import TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable


@pytest.fixture(scope="session")
def small_topology():
    """A few-hundred-router transit-stub topology (deterministic)."""
    return generate_transit_stub(TransitStubParams.small(), seed=0)


@pytest.fixture(scope="session")
def routing(small_topology):
    return RoutingTable(small_topology)


@pytest.fixture(scope="session")
def hosts16(small_topology):
    return attach_hosts(small_topology, 16, rng=random.Random(1))


@pytest.fixture(scope="session")
def env32():
    """Shared experiment environment with 32 hosts."""
    return ExperimentEnv(n_hosts=32, seed=0)


@pytest.fixture()
def membership_triangle():
    """The paper's Figure 2 memberships: G0={A,B,D}, G1={A,B,C}, G2={B,C,D}."""
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def golden_snapshot():
    """Twelve overlapping groups over 32 hosts: one 49-atom cluster.

    The fixed input of the golden tests (certificate bytes, machines,
    cross-epoch digest) that pin fixed-seed behaviour to the commit the
    values were recorded on.
    """
    rng = random.Random(7)
    return {
        g: frozenset(rng.sample(range(32), rng.randint(4, 12))) for g in range(12)
    }


def make_fabric(env, membership, **kwargs):
    """Build an OrderingFabric on a shared environment (helper)."""
    return env.build_fabric(membership, **kwargs)
