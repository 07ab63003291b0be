"""Tests for distribution-phase delivery-tree accounting."""

from repro.pubsub.membership import GroupMembership
from repro.pubsub.multicast import DeliveryTree


def membership_two_groups():
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3, 4, 5], group_id=0)
    membership.create_group([4, 5, 6, 7], group_id=1)
    return membership


def test_tree_accounting_populated(env32):
    fabric = env32.build_fabric(membership_two_groups())
    fabric.publish(0, 0)
    fabric.run()
    assert fabric.distribution_tree_links > 0
    assert fabric.distribution_unicast_links > 0
    assert fabric.distribution_tree_bytes > 0


def test_tree_never_worse_than_unicast(env32):
    fabric = env32.build_fabric(membership_two_groups())
    for i in range(5):
        fabric.publish(0, 0)
        fabric.publish(4, 1)
    fabric.run()
    assert fabric.distribution_tree_links <= fabric.distribution_unicast_links


def test_tree_accounting_scales_with_messages(env32):
    fabric = env32.build_fabric(membership_two_groups())
    fabric.publish(0, 0)
    fabric.run()
    first = fabric.distribution_tree_links
    fabric.publish(0, 0)
    fabric.run()
    assert fabric.distribution_tree_links == 2 * first  # same tree reused


def test_tree_cache_by_egress_and_group(env32):
    """Each (machine, group) entry holds the link counts of that group's
    delivery tree rooted at that machine."""
    fabric = env32.build_fabric(membership_two_groups())
    fabric.publish(0, 0)
    fabric.publish(4, 1)
    fabric.run()
    assert len(fabric._tree_counts) >= 1
    for (machine, group), counts in fabric._tree_counts.items():
        members = [
            fabric._host_by_id[m].router for m in fabric.membership.members(group)
        ]
        tree = DeliveryTree(fabric.routing, machine, members)
        assert counts == (tree.link_count(), tree.unicast_link_count())


def test_multicast_gain_with_clustered_members(env32):
    """Members sharing clusters produce real link sharing (> 1 gain)."""
    membership = GroupMembership()
    # Hosts 0..7 are attached near each other (clusters of 8).
    membership.create_group(list(range(8)), group_id=0)
    fabric = env32.build_fabric(membership)
    fabric.publish(0, 0)
    fabric.run()
    assert fabric.distribution_tree_links < fabric.distribution_unicast_links
