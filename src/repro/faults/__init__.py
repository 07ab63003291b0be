"""Fault injection, failure detection, and live failover.

The robustness layer of the reproduction (``docs/FAULTS.md``):

* :mod:`repro.faults.plan` — a deterministic fault-plan DSL (timed
  crashes, outages, partitions, delay spikes, loss windows) plus a
  seeded random-plan generator for chaos campaigns.
* :mod:`repro.faults.detector` — a heartbeat failure detector process
  that suspects silent sequencing nodes.
* :mod:`repro.faults.failover` — standby selection and the glue turning
  a suspicion into a live :meth:`~repro.core.protocol.OrderingFabric.
  relocate_node` call.
* :mod:`repro.faults.churn` — deterministic membership churn: seeded
  join/leave arrivals over Zipf-popular groups.
* :mod:`repro.faults.campaign` — one driver for seeded campaigns over a
  timeline of publishes, faults and membership changes, audited by the
  ``RT3xx`` invariants (``repro chaos [--churn N]``).
"""

from repro.faults.campaign import CampaignConfig, execute_campaign, run_campaign
from repro.faults.churn import ChurnEvent, ChurnPlan, random_churn
from repro.faults.detector import HeartbeatDetector
from repro.faults.failover import choose_standby, fail_over, wire_failover
from repro.faults.plan import (
    CrashHost,
    CrashNode,
    DelaySpike,
    FaultAction,
    FaultPlan,
    LinkOutage,
    LossWindow,
    Partition,
    random_plan,
)

__all__ = [
    "CampaignConfig",
    "ChurnEvent",
    "ChurnPlan",
    "CrashHost",
    "CrashNode",
    "DelaySpike",
    "FaultAction",
    "FaultPlan",
    "HeartbeatDetector",
    "LinkOutage",
    "LossWindow",
    "Partition",
    "choose_standby",
    "execute_campaign",
    "fail_over",
    "random_churn",
    "random_plan",
    "run_campaign",
    "wire_failover",
]
