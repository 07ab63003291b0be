"""Topic-based subscription management on top of the membership matrix.

The paper's system model says "a group is formed of all subscribers that
share a common subscription".  The broker realizes exactly that: each
distinct topic string maps to one group; subscribing to a topic joins the
group (creating it on first subscription), unsubscribing leaves it (deleting
it when the last subscriber leaves).  The examples use topics; the core
protocol and the experiments work directly with group ids.
"""

from typing import Dict, Optional

from repro.pubsub.membership import GroupMembership, MembershipError


class SubscriptionBroker:
    """Maps topic strings to groups in a :class:`GroupMembership`."""

    def __init__(self, membership: Optional[GroupMembership] = None):
        self.membership = membership if membership is not None else GroupMembership()
        self._topic_to_group: Dict[str, int] = {}
        self._group_to_topic: Dict[int, str] = {}

    def subscribe(self, node: int, topic: str) -> int:
        """Subscribe ``node`` to ``topic``; returns the topic's group id."""
        group_id = self._topic_to_group.get(topic)
        if group_id is None:
            group_id = self.membership.create_group([node])
            self._topic_to_group[topic] = group_id
            self._group_to_topic[group_id] = topic
        else:
            self.membership.join(group_id, node)
        return group_id

    def unsubscribe(self, node: int, topic: str) -> None:
        """Remove ``node``'s subscription; deletes the group if emptied."""
        group_id = self._topic_to_group.get(topic)
        if group_id is None:
            raise MembershipError(f"no such topic {topic!r}")
        self.membership.leave(group_id, node)
        if not self.membership.has_group(group_id):
            del self._topic_to_group[topic]
            del self._group_to_topic[group_id]

    def group_for(self, topic: str) -> int:
        """Group id for a topic; raises ``MembershipError`` if unknown."""
        try:
            return self._topic_to_group[topic]
        except KeyError:
            raise MembershipError(f"no such topic {topic!r}") from None

    def topic_for(self, group_id: int) -> str:
        """Topic string backing a group id."""
        try:
            return self._group_to_topic[group_id]
        except KeyError:
            raise MembershipError(f"group {group_id} has no topic") from None
