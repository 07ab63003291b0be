"""Unit tests for membership, broker, and multicast delivery trees."""

import pytest

from repro.pubsub.broker import SubscriptionBroker
from repro.pubsub.membership import GroupMembership, MembershipError
from repro.pubsub.multicast import DeliveryTree

# ---------------------------------------------------------------------------
# GroupMembership
# ---------------------------------------------------------------------------


def test_create_group_auto_id():
    m = GroupMembership()
    g0 = m.create_group([1, 2])
    g1 = m.create_group([3])
    assert g0 != g1
    assert m.members(g0) == frozenset({1, 2})


def test_create_group_explicit_id():
    m = GroupMembership()
    assert m.create_group([1], group_id=42) == 42
    assert m.has_group(42)


def test_create_group_duplicate_id_rejected():
    m = GroupMembership()
    m.create_group([1], group_id=7)
    with pytest.raises(MembershipError):
        m.create_group([2], group_id=7)


def test_auto_id_skips_explicit_ids():
    m = GroupMembership()
    m.create_group([1], group_id=0)
    g = m.create_group([2])
    assert g != 0


def test_groups_sorted():
    m = GroupMembership()
    m.create_group([1], group_id=5)
    m.create_group([1], group_id=2)
    assert m.groups() == [2, 5]


def test_groups_of_node():
    m = GroupMembership()
    a = m.create_group([1, 2])
    b = m.create_group([2, 3])
    assert m.groups_of(2) == frozenset({a, b})
    assert m.groups_of(1) == frozenset({a})
    assert m.groups_of(99) == frozenset()


def test_remove_group():
    m = GroupMembership()
    g = m.create_group([1, 2])
    m.remove_group(g)
    assert not m.has_group(g)
    assert m.groups_of(1) == frozenset()


def test_remove_missing_group_rejected():
    m = GroupMembership()
    with pytest.raises(MembershipError):
        m.remove_group(3)


def test_members_missing_group_rejected():
    m = GroupMembership()
    with pytest.raises(MembershipError):
        m.members(1)


def test_join_and_leave():
    m = GroupMembership()
    g = m.create_group([1, 2])
    m.join(g, 3)
    assert m.members(g) == frozenset({1, 2, 3})
    m.leave(g, 1)
    assert m.members(g) == frozenset({2, 3})


def test_join_idempotent():
    m = GroupMembership()
    g = m.create_group([1])
    m.join(g, 1)
    assert m.members(g) == frozenset({1})


def test_leave_last_member_deletes_group():
    m = GroupMembership()
    g = m.create_group([1])
    m.leave(g, 1)
    assert not m.has_group(g)


def test_leave_non_member_is_noop():
    m = GroupMembership()
    g = m.create_group([1])
    m.leave(g, 9)
    assert m.members(g) == frozenset({1})


def test_replace_group():
    m = GroupMembership()
    g = m.create_group([1, 2])
    m.replace_group(g, [3, 4])
    assert m.members(g) == frozenset({3, 4})
    assert m.groups_of(1) == frozenset()


def test_listener_sees_add_and_remove():
    m = GroupMembership()
    events = []
    m.add_listener(lambda op, gid, members: events.append((op, gid, members)))
    g = m.create_group([1, 2])
    m.remove_group(g)
    assert events == [
        ("add", g, frozenset({1, 2})),
        ("remove", g, frozenset({1, 2})),
    ]


def test_listener_sees_join_as_remove_add():
    m = GroupMembership()
    events = []
    g = m.create_group([1])
    m.add_listener(lambda op, gid, members: events.append(op))
    m.join(g, 2)
    assert events == ["remove", "add"]


def test_snapshot_is_immutable_copy():
    m = GroupMembership()
    g = m.create_group([1, 2])
    snapshot = m.snapshot()
    assert snapshot == {g: frozenset({1, 2})}
    m.join(g, 3)
    assert snapshot[g] == frozenset({1, 2})


def test_nodes_and_counts():
    m = GroupMembership()
    m.create_group([3, 1])
    m.create_group([1])
    assert m.nodes() == [1, 3]
    assert len(m.groups()) == 2


def test_contains():
    m = GroupMembership()
    g = m.create_group([1])
    assert g in m
    assert (g + 1) not in m


# ---------------------------------------------------------------------------
# SubscriptionBroker
# ---------------------------------------------------------------------------


def test_broker_subscribe_creates_group():
    broker = SubscriptionBroker()
    g = broker.subscribe(1, "news")
    assert broker.group_for("news") == g
    assert broker.membership.members(g) == frozenset({1})


def test_broker_same_topic_same_group():
    broker = SubscriptionBroker()
    g1 = broker.subscribe(1, "news")
    g2 = broker.subscribe(2, "news")
    assert g1 == g2
    assert broker.membership.members(g1) == frozenset({1, 2})


def test_broker_distinct_topics_distinct_groups():
    broker = SubscriptionBroker()
    assert broker.subscribe(1, "a") != broker.subscribe(1, "b")


def test_broker_unsubscribe():
    broker = SubscriptionBroker()
    broker.subscribe(1, "t")
    broker.subscribe(2, "t")
    broker.unsubscribe(1, "t")
    assert broker.membership.members(broker.group_for("t")) == frozenset({2})


def test_broker_unsubscribe_last_deletes_topic():
    broker = SubscriptionBroker()
    broker.subscribe(1, "t")
    broker.unsubscribe(1, "t")
    with pytest.raises(MembershipError):
        broker.group_for("t")


def test_broker_unsubscribe_unknown_topic():
    broker = SubscriptionBroker()
    with pytest.raises(MembershipError):
        broker.unsubscribe(1, "nope")


def test_broker_topic_for_group():
    broker = SubscriptionBroker()
    g = broker.subscribe(1, "x")
    assert broker.topic_for(g) == "x"
    with pytest.raises(MembershipError):
        broker.topic_for(g + 100)


# ---------------------------------------------------------------------------
# DeliveryTree
# ---------------------------------------------------------------------------


def test_tree_delay_matches_unicast(routing):
    tree = DeliveryTree(routing, root=0, members=[10, 20, 30])
    delays = tree.delays()
    for member in (10, 20, 30):
        assert delays[member] == pytest.approx(routing.delay(0, member))


def test_tree_members_deduped(routing):
    tree = DeliveryTree(routing, root=0, members=[5, 5, 5])
    assert tree.members == [5]


def test_tree_link_sharing_gain(routing):
    members = [40, 41, 42, 43, 44]
    tree = DeliveryTree(routing, root=0, members=members)
    assert tree.link_count() <= tree.unicast_link_count()


def test_tree_unicast_link_count_sums_the_member_paths(routing):
    members = [40, 41, 42, 43, 44, 0]
    tree = DeliveryTree(routing, root=0, members=members)
    assert tree.unicast_link_count() == sum(
        len(routing.path(0, member)) - 1 for member in members
    )


def test_tree_root_member(routing):
    tree = DeliveryTree(routing, root=7, members=[7])
    assert tree.delays() == {7: 0.0}
    assert tree.link_count() == 0


def test_tree_delays_map(routing):
    tree = DeliveryTree(routing, root=0, members=[3, 9])
    delays = tree.delays()
    assert set(delays) == {3, 9}
