"""Publish/subscribe substrate: groups, membership, distribution.

The ordering protocol sits on top of a conventional pub/sub layer.  Per the
paper's system model, subscribers join *groups* that represent interests; a
group is formed of all subscribers sharing a common subscription, and the
group membership matrix is globally known (Section 3: it could live in a DHT
or be provided by the pub/sub system — here it is an in-process store).

* :mod:`repro.pubsub.membership` — the group membership matrix with
  join/leave/create/delete operations and change listeners.
* :mod:`repro.pubsub.broker` — maps free-form topic subscriptions onto
  groups (all subscribers sharing a subscription form one group).
* :mod:`repro.pubsub.multicast` — source-rooted shortest-path delivery
  trees used in the distribution phase.
"""

from repro.pubsub.broker import SubscriptionBroker
from repro.pubsub.membership import GroupMembership, MembershipError
from repro.pubsub.multicast import DeliveryTree

__all__ = [
    "DeliveryTree",
    "GroupMembership",
    "MembershipError",
    "SubscriptionBroker",
]
