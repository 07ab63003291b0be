"""Deterministic membership churn: a seeded join/leave script.

:func:`random_churn` draws a join/leave arrival process over Zipf-popular
groups (:func:`repro.workloads.zipf.zipf_membership` rank-orders group
ids, so group 0 is the largest and the most churned).  Each batch of the
resulting :class:`ChurnPlan` takes effect at an online, epoch-fenced
switch of a campaign (:mod:`repro.faults.campaign`).
"""

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Set, Tuple

__all__ = ["ChurnEvent", "ChurnPlan", "random_churn"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: ``host`` joins or leaves ``group`` at ``at``."""

    at: float
    op: str  # "join" | "leave"
    group: int
    host: int

    def describe(self) -> Dict[str, Any]:
        return {"at": self.at, "op": self.op, "group": self.group, "host": self.host}


@dataclass
class ChurnPlan:
    """A seeded churn script: timed events plus the epoch-switch instants."""

    events: List[ChurnEvent] = field(default_factory=list)
    switch_times: List[float] = field(default_factory=list)

    def batches(self) -> List[Tuple[float, List[ChurnEvent]]]:
        """Events grouped by the switch that applies them, in time order:
        each event belongs to the first switch at or after its time."""
        out: List[Tuple[float, List[ChurnEvent]]] = []
        remaining = sorted(self.events, key=lambda e: (e.at, e.group, e.host))
        for switch_at in self.switch_times:
            batch = [e for e in remaining if e.at <= switch_at]
            remaining = [e for e in remaining if e.at > switch_at]
            out.append((switch_at, batch))
        return out

    def to_dicts(self) -> Dict[str, Any]:
        events = [e.describe() for e in self.events]
        return {"events": events, "switch_times": list(self.switch_times)}


def _weighted_group(groups: List[int], rng: random.Random, exponent: float) -> int:
    """Zipf-popular group choice: weight of group g is 1/(g+1)^exponent."""
    weights = [1.0 / float(g + 1) ** exponent for g in groups]
    total = sum(weights)
    target = rng.random() * total
    acc = 0.0
    for group, weight in zip(groups, weights):
        acc += weight
        if target < acc:
            return group
    return groups[-1]


def random_churn(
    snapshot: Dict[int, FrozenSet[int]],
    n_hosts: int,
    rng: random.Random,
    window: float,
    events: int = 50,
    switches: int = 5,
    exponent: float = 1.0,
    min_size: int = 2,
) -> ChurnPlan:
    """A seeded join/leave arrival process over ``snapshot``'s groups.

    ``switches`` epoch-switch instants are spread evenly over
    ``(0, window)``; every event lands before the last switch, so every
    change is eventually applied.  Joins pick a deterministic non-member
    host; leaves keep each group at ``min_size`` members or more.  The
    generator maintains a working copy of the membership, so the script
    is valid when applied in time order.
    """
    if switches < 1:
        return ChurnPlan(events=[], switch_times=[])
    switch_times = [
        window * (index + 1) / (switches + 1) for index in range(switches)
    ]
    groups = sorted(snapshot)
    working: Dict[int, Set[int]] = {g: set(m) for g, m in snapshot.items()}
    times = sorted(
        rng.random() * switch_times[-1] for _ in range(max(0, events))
    )
    script: List[ChurnEvent] = []
    for at in times:
        group = _weighted_group(groups, rng, exponent)
        members = working[group]
        want_join = rng.random() < 0.5
        non_members = sorted(set(range(n_hosts)) - members)
        can_join = bool(non_members)
        can_leave = len(members) > min_size
        if want_join and not can_join:
            want_join = False
        if not want_join and not can_leave:
            want_join = True
        if want_join and can_join:
            host = non_members[rng.randrange(len(non_members))]
            members.add(host)
            script.append(ChurnEvent(at=at, op="join", group=group, host=host))
        elif can_leave:
            candidates = sorted(members)
            host = candidates[rng.randrange(len(candidates))]
            members.discard(host)
            script.append(ChurnEvent(at=at, op="leave", group=group, host=host))
        # A group both full and at min_size cannot exist (n_hosts >
        # min_size), so one of the branches always applies.
    return ChurnPlan(events=script, switch_times=switch_times)
