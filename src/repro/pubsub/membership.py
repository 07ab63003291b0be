"""The globally-known group membership matrix.

Section 3 of the paper assumes "the group membership matrix — which nodes
belong to which groups — is globally known; it can be kept in a distributed
data store such as a DHT or it can be provided by the underlying
publish/subscribe system".  This module is that store.

Listeners can subscribe to membership changes; the sequencing layer uses
this to update the sequencing graph incrementally when groups are added or
removed (paper Section 3.2: membership *changes* are modelled as removing
the old group and adding a group with the new membership).
"""

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set


class MembershipError(ValueError):
    """Raised on invalid membership operations (duplicate group, etc.)."""


ChangeListener = Callable[[str, int, FrozenSet[int]], None]
"""Callback ``(op, group_id, members)`` where op is "add" or "remove"."""


class GroupMembership:
    """Mapping of groups to subscriber sets, with change notification.

    Group ids are small integers; member ids are host ids.  All query
    methods return copies or frozen views, so callers cannot corrupt the
    matrix by mutating results.
    """

    def __init__(self) -> None:
        self._members: Dict[int, Set[int]] = {}
        self._groups_of: Dict[int, Set[int]] = {}
        self._listeners: List[ChangeListener] = []
        self._next_group_id = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        """Register a callback for group add/remove events."""
        self._listeners.append(listener)

    def _notify(self, op: str, group_id: int, members: FrozenSet[int]) -> None:
        for listener in self._listeners:
            listener(op, group_id, members)

    def create_group(
        self, members: Iterable[int], group_id: Optional[int] = None
    ) -> int:
        """Create a group with the given members; returns its id.

        An explicit ``group_id`` may be supplied (useful for reproducing
        fixed scenarios); auto-assigned ids never collide with explicit
        ones.
        """
        member_set = set(members)
        if group_id is None:
            while self._next_group_id in self._members:
                self._next_group_id += 1
            group_id = self._next_group_id
            self._next_group_id += 1
        elif group_id in self._members:
            raise MembershipError(f"group {group_id} already exists")
        self._members[group_id] = member_set
        for node in member_set:
            self._groups_of.setdefault(node, set()).add(group_id)
        self._notify("add", group_id, frozenset(member_set))
        return group_id

    def remove_group(self, group_id: int) -> None:
        """Delete a group entirely."""
        members = self._pop_group(group_id)
        self._notify("remove", group_id, frozenset(members))

    def _pop_group(self, group_id: int) -> Set[int]:
        try:
            members = self._members.pop(group_id)
        except KeyError:
            raise MembershipError(f"no such group {group_id}") from None
        for node in members:
            self._groups_of[node].discard(group_id)
            if not self._groups_of[node]:
                del self._groups_of[node]
        return members

    def replace_group(self, group_id: int, members: Iterable[int]) -> None:
        """Atomically change a group's membership.

        Implemented as remove-then-add under the same id, matching the
        paper's model of membership change (Section 3.2).
        """
        old = self._pop_group(group_id)
        self._notify("remove", group_id, frozenset(old))
        member_set = set(members)
        self._members[group_id] = member_set
        for node in member_set:
            self._groups_of.setdefault(node, set()).add(group_id)
        self._notify("add", group_id, frozenset(member_set))

    def join(self, group_id: int, node: int) -> None:
        """Add ``node`` to an existing group (membership change)."""
        if group_id not in self._members:
            raise MembershipError(f"no such group {group_id}")
        if node in self._members[group_id]:
            return
        self.replace_group(group_id, self._members[group_id] | {node})

    def leave(self, group_id: int, node: int) -> None:
        """Remove ``node`` from a group; deletes the group if emptied."""
        if group_id not in self._members:
            raise MembershipError(f"no such group {group_id}")
        if node not in self._members[group_id]:
            return
        remaining = self._members[group_id] - {node}
        if remaining:
            self.replace_group(group_id, remaining)
        else:
            self.remove_group(group_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def groups(self) -> List[int]:
        """All group ids, sorted for deterministic iteration."""
        return sorted(self._members)

    def members(self, group_id: int) -> FrozenSet[int]:
        """Members of a group as an immutable set."""
        try:
            return frozenset(self._members[group_id])
        except KeyError:
            raise MembershipError(f"no such group {group_id}") from None

    def groups_of(self, node: int) -> FrozenSet[int]:
        """Groups a node subscribes to (empty set if none)."""
        return frozenset(self._groups_of.get(node, ()))

    def nodes(self) -> List[int]:
        """All nodes with at least one subscription, sorted."""
        return sorted(self._groups_of)

    def has_group(self, group_id: int) -> bool:
        """Whether the group exists."""
        return group_id in self._members

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._members

    def snapshot(self) -> Dict[int, FrozenSet[int]]:
        """An immutable copy of the whole matrix."""
        return {g: frozenset(m) for g, m in self._members.items()}
