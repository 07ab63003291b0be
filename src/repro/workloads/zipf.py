"""Zipf-distributed group memberships (paper Section 4.1).

"We rank the groups based on their size and we generate the size of each
group using a Zipf distribution with exponent 1.  The sizes are
proportional to the function r^-1 / H_{n,1}, where r is the rank of the
group, n is the number of hosts and H_{n,1} is the generalized harmonic
number of order n of 1."

The paper fixes the constant only up to proportionality.  Two readings
bracket it: the probability-mass reading (``size(r) = n/(r·H_n)``, rank-1
group ≈ n/H_n ≈ 0.18n) produces almost no double overlaps — none of the
evaluation's figures are reproducible there — while ``size(r) = n/r``
makes the rank-1 group universal, which degenerates the Section 3.4
subset rule (every overlap with the universal group is a superset of
every other overlap of that partner, collapsing all atoms onto one
sequencing node).  We default to ``size(r) = 0.75·n/r``, the calibration
that reproduces the paper's shapes: sequencing-node growth that turns
gradual past ~30 groups (Fig. 5), stress near 0.2 (Fig. 6), and a
worst-case atoms-on-path ratio approaching but below one half (Fig. 7).
Pass ``largest`` to choose a different constant.

Members of each group are drawn uniformly at random from the host
population.  Sizes below ``min_size`` are clamped: a group with fewer than
two members can neither overlap doubly nor need ordering, so the paper's
experiments are only meaningful for sizes >= 2 (the clamp is documented in
EXPERIMENTS.md).
"""

import random
from typing import Dict, FrozenSet, List, Optional


def zipf_group_sizes(
    n_hosts: int,
    n_groups: int,
    exponent: float = 1.0,
    min_size: int = 2,
    largest: Optional[int] = None,
) -> List[int]:
    """Group sizes by rank: ``size(r) = largest * r^-exponent``.

    ``largest`` defaults to ``0.75 * n_hosts`` (see the module docstring
    for the calibration).  Sizes are rounded and clamped to
    ``[min_size, n_hosts]``.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    if largest is None:
        largest = max(min_size, round(0.75 * n_hosts))
    sizes = []
    for rank in range(1, n_groups + 1):
        size = round(largest * (rank**-exponent))
        sizes.append(max(min_size, min(n_hosts, size)))
    return sizes


def zipf_membership(
    n_hosts: int,
    n_groups: int,
    rng: Optional[random.Random] = None,
    exponent: float = 1.0,
    min_size: int = 2,
    largest: Optional[int] = None,
) -> Dict[int, FrozenSet[int]]:
    """A full membership snapshot with Zipf-distributed group sizes.

    Group ids are ``0 .. n_groups-1`` in rank order (group 0 is largest);
    members are sampled uniformly without replacement per group.
    """
    rng = rng or random.Random(0)
    hosts = list(range(n_hosts))
    snapshot: Dict[int, FrozenSet[int]] = {}
    for group_id, size in enumerate(
        zipf_group_sizes(n_hosts, n_groups, exponent, min_size, largest)
    ):
        snapshot[group_id] = frozenset(rng.sample(hosts, size))
    return snapshot
