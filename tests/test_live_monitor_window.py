"""The LM300 order window: same verdicts as the member scan it replaced,
constant work per delivery, and bounded through membership changes.

``LiveMonitor._check_order_window`` knows a group's slowest member from a
count of members per position; before, it took ``min()`` over every member
on every delivery.  That body is kept here as the oracle.
"""

import random
from typing import Dict, FrozenSet, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import LiveMonitor
from repro.runtime.trace import TraceRecord


class ScanningMonitor(LiveMonitor):
    """``_check_order_window`` as it stood: a scan of the members."""

    def _check_order_window(self, time, host, group, msg):
        members = self.membership.get(group)
        if not members or host not in members:
            return
        window = self._order_window.setdefault(group, [])
        base = self._order_base.setdefault(group, 0)
        position = self._order_ptr.get((group, host), 0)
        index = position - base
        if index == len(window):
            window.append(msg)
        elif 0 <= index < len(window) and window[index] != msg:
            self._alert(
                time,
                "LM300",
                f"host {host} delivered message {msg} at group {group} "
                f"position {position} where the agreed order has "
                f"{window[index]}",
                f"group {group}",
            )
        self._order_ptr[(group, host)] = position + 1
        slowest = min(
            self._order_ptr.get((group, member), 0) for member in members
        )
        if slowest > base:
            trim = min(slowest - base, len(window))
            if trim:
                del window[:trim]
                self._order_base[group] = base + trim


def deliver(time: float, host: int, msg: int, group: int = 0) -> TraceRecord:
    return TraceRecord(
        time,
        "deliver",
        {"msg": msg, "host": host, "group": group, "sender": 0,
         "publish_time": 0.0},
    )


def interleaving(
    rng: random.Random,
    membership: Dict[int, FrozenSet[int]],
    messages: int,
    silent: FrozenSet[int],
    diverge: bool,
) -> List[TraceRecord]:
    """Every member (but the ``silent``) delivers its groups' messages in
    one agreed order, the members interleaved at random; ``diverge`` makes
    one member swap two neighbours (an LM300)."""
    groups = sorted(membership)
    order = {g: [] for g in groups}
    for msg in range(messages):
        order[rng.choice(groups)].append(msg)
    queues = {
        (g, host): list(order[g])
        for g in groups
        for host in membership[g]
        if host not in silent
    }
    if diverge:
        swappable = [key for key, queue in queues.items() if len(queue) >= 2]
        if swappable:
            queue = queues[rng.choice(swappable)]
            at = rng.randrange(len(queue) - 1)
            queue[at], queue[at + 1] = queue[at + 1], queue[at]
    records = []
    live = [key for key, queue in queues.items() if queue]
    while live:
        key = rng.choice(live)
        group, host = key
        records.append(deliver(float(len(records)), host, queues[key].pop(0), group))
        if not queues[key]:
            live.remove(key)
    # A stranger's delivery is ignored by the window.
    records.insert(
        rng.randrange(len(records) + 1), deliver(0.0, 99, 10_000, groups[0])
    )
    return records


def order_state(monitor: LiveMonitor):
    return (
        {g: list(w) for g, w in monitor._order_window.items()},
        dict(monitor._order_base),
        dict(monitor._order_ptr),
        [alert.to_dict() for alert in monitor.alerts],
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hosts=st.integers(1, 6),
    groups=st.integers(1, 3),
    messages=st.integers(1, 40),
    silent=st.booleans(),
    diverge=st.booleans(),
)
def test_window_and_alerts_match_the_member_scan(
    seed, hosts, groups, messages, silent, diverge
):
    rng = random.Random(seed)
    membership = {
        g: frozenset(rng.sample(range(hosts), rng.randint(1, hosts)))
        for g in range(groups)
    }
    quiet = frozenset({rng.randrange(hosts)}) if silent else frozenset()
    records = interleaving(rng, membership, messages, quiet, diverge)
    monitor = LiveMonitor(retain_audit=False)
    oracle = ScanningMonitor(retain_audit=False)
    for each in (monitor, oracle):
        each.adopt_membership(membership)
    for record in records:
        monitor.observe(record)
        oracle.observe(record)
        assert order_state(monitor) == order_state(oracle)


def test_divergence_is_reported_and_a_silent_member_holds_the_window():
    membership = {0: frozenset({0, 1, 2})}
    monitor = LiveMonitor(retain_audit=False)
    monitor.adopt_membership(membership)
    for msg in range(5):
        monitor.observe(deliver(msg, 0, msg))
    monitor.observe(deliver(5.0, 1, 1))  # the agreed order starts with 0
    assert [a.rule for a in monitor.alerts] == ["LM300"]
    # Host 2 delivered nothing: no entry may be trimmed.
    assert monitor._order_window[0] == [0, 1, 2, 3, 4]
    assert monitor._order_base[0] == 0


# ---------------------------------------------------------------------------
# Count guard
# ---------------------------------------------------------------------------


class CountingDict(dict):
    """A dict that counts its probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.probes += 1
        super().__setitem__(key, value)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def _pointer_probes(monitor: LiveMonitor, members: int, messages: int) -> float:
    monitor.adopt_membership({0: frozenset(range(members))})
    pointers = monitor._order_ptr = CountingDict()
    deliveries = 0
    for msg in range(messages):
        for host in range(members):
            monitor.observe(deliver(float(msg), host, msg))
            deliveries += 1
    assert monitor.alerts == []
    return pointers.probes / deliveries


def test_pointer_probes_per_delivery_do_not_grow_with_the_group():
    wide = _pointer_probes(LiveMonitor(retain_audit=False), 96, 30)
    narrow = _pointer_probes(LiveMonitor(retain_audit=False), 4, 30)
    assert wide <= 3
    assert wide <= narrow + 1
    # The member scan probed once per member per delivery.
    assert _pointer_probes(ScanningMonitor(retain_audit=False), 96, 30) >= 96


# ---------------------------------------------------------------------------
# Membership adopted mid-stream
# ---------------------------------------------------------------------------

DEPTH = 4


def _stream(monitor: LiveMonitor, members: List[int], first: int, count: int) -> int:
    """``count`` messages, each member lagging the first by up to DEPTH
    messages; returns the longest the window got."""
    longest = 0
    lag = {host: index % (DEPTH + 1) for index, host in enumerate(members)}
    for msg in range(first, first + count + DEPTH):
        for host in members:
            mine = msg - lag[host]
            if first <= mine < first + count:
                monitor.observe(deliver(float(msg), host, mine))
                longest = max(longest, len(monitor._order_window[0]))
    return longest


def test_window_stays_bounded_when_membership_changes_mid_stream():
    monitor = LiveMonitor(retain_audit=False)
    monitor.adopt_membership({0: frozenset({0, 1, 2})})
    assert _stream(monitor, [0, 1, 2], 0, 100) <= DEPTH + 1
    assert monitor._order_window[0] == []
    # Host 2 leaves, host 3 joins: in force from the next record on.
    monitor.adopt_membership({0: frozenset({0, 1, 3})})
    assert _stream(monitor, [0, 1, 3], 100, 1000) <= DEPTH + 1
    assert monitor._order_window[0] == []
    assert monitor._order_base[0] == 1100
    assert monitor.alerts == []
    assert (0, 2) not in monitor._order_ptr


def test_departed_member_stops_holding_the_window():
    monitor = LiveMonitor(retain_audit=False)
    monitor.adopt_membership({0: frozenset({0, 1, 2})})
    for msg in range(10):
        monitor.observe(deliver(float(msg), 0, msg))
        monitor.observe(deliver(float(msg), 1, msg))
    assert len(monitor._order_window[0]) == 10  # host 2 never delivered
    monitor.adopt_membership({0: frozenset({0, 1})})
    monitor.observe(deliver(10.0, 0, 10))
    assert monitor._order_window[0] == [10]
    assert monitor._order_base[0] == 10


def test_remaining_member_keeps_what_it_has_not_passed():
    monitor = LiveMonitor(retain_audit=False)
    monitor.adopt_membership({0: frozenset({0, 1})})
    for msg in range(6):
        monitor.observe(deliver(float(msg), 0, msg))
    monitor.observe(deliver(6.0, 1, 0))
    # Host 3 joins at the head; host 1 still owes 1..5 and they stay.
    monitor.adopt_membership({0: frozenset({0, 1, 3})})
    monitor.observe(deliver(7.0, 3, 6))
    assert monitor._order_window[0] == [1, 2, 3, 4, 5, 6]
    monitor.observe(deliver(8.0, 1, 2))  # out of order: 1 was next
    assert [a.rule for a in monitor.alerts] == ["LM300"]
