"""RT301 / RT302 / RT305 / RT306 against the routines they replaced.

``check_mutual_consistency`` and ``check_causal_order`` look closely only
at host pairs whose logs, projected onto some pair of groups, disagree
(and at hosts that delivered a message twice or one never published); the
bodies they had before — a set intersection and two list comprehensions per host pair,
a rescan of the publisher's log and a dict probe per (message, dependency,
host) — are kept here as oracles.  So are ``check_exactly_once`` as it
counted deliveries in a dict per host, and the delivery index as it was
built from a ``{msg: position}`` dict per host, before ``verify_run`` built
one index from the id columns for all of them.  Findings are the contract:
code, text, anchor, order and the 25-per-check cap must be identical on
any view, clean or broken.
"""

import gc
import random
import tracemalloc
from collections import Counter
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import invariants
from repro.check.findings import Finding
from repro.check.invariants import (
    MAX_FINDINGS_PER_CHECK,
    DeliveredEntry,
    PublishedEntry,
    RunView,
    check_causal_order,
    check_exactly_once,
    check_group_order,
    check_mutual_consistency,
    check_no_residual_buffering,
    check_publisher_fifo,
    check_stability,
    fabric_view,
    verify_run,
)
from repro.core.delivery_log import DeliveryLog, MessageHeader
from repro.core.messages import Stamp
from repro.experiments.common import ExperimentEnv

# ---------------------------------------------------------------------------
# The oracles: the bodies as they stood before the rewrite
# ---------------------------------------------------------------------------


# Untouched helpers of the module under test.
_finding = invariants._finding
_delivered_ids = invariants._delivered_ids


def oracle_mutual_consistency(view: RunView) -> List[Finding]:
    findings: List[Finding] = []
    host_ids = view.hosts()
    orders = {h: _delivered_ids(view, h) for h in host_ids}
    for i, a in enumerate(host_ids):
        seq_a = orders[a]
        set_a = set(seq_a)
        for b in host_ids[i + 1 :]:
            seq_b = orders[b]
            common = set_a & set(seq_b)
            if not common:
                continue
            ordered_a = [m for m in seq_a if m in common]
            ordered_b = [m for m in seq_b if m in common]
            if ordered_a != ordered_b:
                findings.append(
                    _finding(
                        "RT305",
                        f"hosts {a} and {b} disagree on the relative order "
                        "of commonly delivered messages",
                        f"hosts {a},{b}",
                    )
                )
                if len(findings) >= MAX_FINDINGS_PER_CHECK:
                    return findings
    return findings


def oracle_causal_order(view: RunView) -> List[Finding]:
    findings: List[Finding] = []
    positions: Dict[int, Dict[int, int]] = {
        host_id: {
            r.msg_id: index
            for index, r in enumerate(view.delivered.get(host_id, []))
        }
        for host_id in view.hosts()
    }
    for msg_id in sorted(view.published):
        message = view.published[msg_id]
        dependencies = [
            r.msg_id
            for r in view.delivered.get(message.sender, [])
            if r.time < message.publish_time
        ]
        if not dependencies:
            continue
        for host_id in sorted(positions):
            pos = positions[host_id]
            if msg_id not in pos:
                continue
            for dep in dependencies:
                dep_pos = pos.get(dep)
                if dep_pos is not None and dep_pos > pos[msg_id]:
                    findings.append(
                        _finding(
                            "RT306",
                            f"host {host_id} delivered {msg_id} before its "
                            f"causal dependency {dep} (publisher "
                            f"{message.sender} delivered {dep} before "
                            f"publishing {msg_id})",
                            f"host {host_id}",
                        )
                    )
                    if len(findings) >= MAX_FINDINGS_PER_CHECK:
                        return findings
    return findings


def assert_same_findings(view: RunView) -> None:
    assert check_mutual_consistency(view) == oracle_mutual_consistency(view)
    assert check_causal_order(view) == oracle_causal_order(view)


# ---------------------------------------------------------------------------
# Views: a clean run, then broken in the ways a real one breaks
# ---------------------------------------------------------------------------


def clean_view(rng: random.Random, hosts: int, groups: int, messages: int) -> RunView:
    """A run that keeps every guarantee: one global publish order, every
    member delivers its groups' messages in that order, each a little
    after the publish and never before the previous delivery."""
    membership = {
        g: frozenset(rng.sample(range(hosts), rng.randint(1, hosts)))
        for g in range(groups)
    }
    delivered: Dict[int, List[DeliveredEntry]] = {h: [] for h in range(hosts)}
    published: Dict[int, PublishedEntry] = {}
    clock = {h: 0.0 for h in range(hosts)}
    now = 0.0
    for msg_id in range(messages):
        group = rng.randrange(groups)
        sender = rng.choice(sorted(membership[group]))
        # Ties between a publish and a delivery happen: quantised time.
        now = max(now, clock[sender]) + rng.choice((0.0, 1.0, 2.0))
        published[msg_id] = PublishedEntry(msg_id, group, sender, now)
        for member in membership[group]:
            clock[member] = max(clock[member], now) + rng.choice((0.0, 1.0, 3.0))
            delivered[member].append(
                DeliveredEntry(msg_id, group, sender, clock[member])
            )
    return RunView(delivered=delivered, membership=membership, published=published)


def _nonempty(view: RunView, rng: random.Random) -> List[DeliveredEntry]:
    return rng.choice([log for log in view.delivered.values() if log] or [[]])


def swap_two(view: RunView, rng: random.Random) -> None:
    log = _nonempty(view, rng)
    if len(log) >= 2:
        i, j = rng.sample(range(len(log)), 2)
        # The entries trade places but keep the slots' delivery times.
        a, b = log[i], log[j]
        log[i], log[j] = b._replace(time=a.time), a._replace(time=b.time)


def duplicate_one(view: RunView, rng: random.Random) -> None:
    log = _nonempty(view, rng)
    if log:
        entry = rng.choice(log)
        at = rng.randrange(len(log) + 1)
        log.insert(at, entry._replace(time=log[min(at, len(log) - 1)].time))


def drop_one(view: RunView, rng: random.Random) -> None:
    """Some host never delivers a message others depend on."""
    log = _nonempty(view, rng)
    if log:
        del log[rng.randrange(len(log))]


def deliver_unpublished(view: RunView, rng: random.Random) -> None:
    log = _nonempty(view, rng)
    if log:
        template = rng.choice(log)
        log.insert(
            rng.randrange(len(log) + 1),
            template._replace(msg_id=10_000 + rng.randrange(50)),
        )


def forget_published(view: RunView, rng: random.Random) -> None:
    if view.published:
        del view.published[rng.choice(sorted(view.published))]


def shuffle_times(view: RunView, rng: random.Random) -> None:
    """A log whose delivery times are not sorted (the dependency filter is
    by time, so the dependencies stop being a prefix of the log)."""
    log = _nonempty(view, rng)
    times = [r.time for r in log]
    rng.shuffle(times)
    log[:] = [r._replace(time=t) for r, t in zip(log, times)]


def empty_publisher(view: RunView, rng: random.Random) -> None:
    if view.published:
        sender = view.published[rng.choice(sorted(view.published))].sender
        if rng.random() < 0.5:
            view.delivered[sender] = []
        else:
            view.delivered.pop(sender, None)


def scramble_host(view: RunView, rng: random.Random) -> None:
    """One host in an arbitrary order: more than 25 violations at once."""
    log = _nonempty(view, rng)
    times = [r.time for r in log]
    rng.shuffle(log)
    log[:] = [r._replace(time=t) for r, t in zip(log, times)]


BREAKS = (
    swap_two, duplicate_one, drop_one, deliver_unpublished, forget_published,
    shuffle_times, empty_publisher, scramble_host,
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hosts=st.integers(1, 7),
    groups=st.integers(1, 4),
    messages=st.integers(0, 40),
    breaks=st.lists(st.sampled_from(BREAKS), max_size=4),
)
def test_findings_identical_on_random_views(seed, hosts, groups, messages, breaks):
    rng = random.Random(seed)
    view = clean_view(rng, hosts, groups, messages)
    assert_same_findings(view)
    for damage in breaks:
        damage(view, rng)
        assert_same_findings(view)


def test_clean_view_is_clean_and_breaks_are_found():
    """The generator does exercise both verdicts."""
    rng = random.Random(5)
    view = clean_view(rng, 6, 3, 40)
    assert verify_run(view) == []
    swapped = 0
    for _ in range(20):
        broken = clean_view(random.Random(5), 6, 3, 40)
        swap_two(broken, rng)
        codes = {f.code for f in verify_run(broken)}
        swapped += bool(codes & {"RT305", "RT306"})
    assert swapped >= 10


def test_cap_and_order_with_many_violations():
    view = clean_view(random.Random(2), 8, 2, 120)
    rng = random.Random(3)
    for host_id in (0, 3, 5):
        log = view.delivered[host_id]
        times = [r.time for r in log]
        rng.shuffle(log)
        log[:] = [r._replace(time=t) for r, t in zip(log, times)]
    causal = check_causal_order(view)
    assert len(causal) == MAX_FINDINGS_PER_CHECK
    assert causal == oracle_causal_order(view)
    mutual = check_mutual_consistency(view)
    assert mutual and mutual == oracle_mutual_consistency(view)


def test_publish_at_the_instant_of_a_delivery_is_no_dependency():
    delivered = {
        0: [DeliveredEntry(1, 0, 1, 5.0)],
        1: [DeliveredEntry(2, 0, 0, 6.0), DeliveredEntry(1, 0, 1, 7.0)],
    }
    membership = {0: frozenset({0, 1})}
    at_instant = RunView(
        delivered=delivered,
        membership=membership,
        published={
            1: PublishedEntry(1, 0, 1, 0.0),
            2: PublishedEntry(2, 0, 0, 5.0),
        },
    )
    assert check_causal_order(at_instant) == []
    just_after = RunView(
        delivered=delivered,
        membership=membership,
        published={
            1: PublishedEntry(1, 0, 1, 0.0),
            2: PublishedEntry(2, 0, 0, 5.5),
        },
    )
    found = check_causal_order(just_after)
    assert [f.anchor for f in found] == ["host 1"]
    assert found == oracle_causal_order(just_after)


def test_finished_fabric_is_audited_in_place():
    """``fabric_view`` hands the checks column snapshots of the fabric's own
    logs: nothing is built per delivery, and a later delivery does not
    reach the view."""
    env = ExperimentEnv(n_hosts=6, seed=0)
    membership = {0: frozenset({0, 1, 2, 3}), 1: frozenset({1, 2, 4, 5})}
    fabric = env.build_fabric(env.membership_from(membership), seed=0)
    for sender, group in ((0, 0), (4, 1), (2, 0), (2, 1)):
        fabric.publish(sender, group)
    fabric.run()
    view = fabric_view(fabric)
    for host_id, process in fabric.host_processes.items():
        log = view.delivered[host_id]
        assert log == process.delivered and log is not process.delivered
        assert all(a == b for a, b in zip(log, process.delivered))
        assert [r.group for r in log] == [r.stamp.group for r in process.delivered]
    assert verify_run(view) == verify_run(fabric) == []
    assert_same_findings(view)
    before = {h: len(log) for h, log in view.delivered.items()}
    fabric.publish(0, 0)
    fabric.run()
    assert {h: len(log) for h, log in view.delivered.items()} == before


def test_auditing_a_fabric_retains_no_object_per_delivery():
    env = ExperimentEnv(n_hosts=6, seed=0)
    membership = {0: frozenset({0, 1, 2, 3}), 1: frozenset({1, 2, 4, 5})}
    fabric = env.build_fabric(env.membership_from(membership), seed=0)
    for i in range(500):
        fabric.publish((0, 4)[i % 2], i % 2)
    fabric.run()
    assert sum(len(p.delivered) for p in fabric.host_processes.values()) == 2000
    verify_run(fabric_view(fabric))  # warm: the checks' own caches
    gc.collect()
    before = len(gc.get_objects())
    view = fabric_view(fabric)
    assert verify_run(view) == []
    gc.collect()
    # The view is still alive: it holds one PublishedEntry per message and
    # nothing per delivery.
    assert len(gc.get_objects()) - before - len(view.published) < 50


# ---------------------------------------------------------------------------
# Count guard: the audit reads each delivery a bounded number of times
# ---------------------------------------------------------------------------


class CountedEntry:
    """A delivery-log entry that counts every field read."""

    __slots__ = ("_entry", "_reads")

    def __init__(self, entry: DeliveredEntry, reads: List[int]):
        self._entry = entry
        self._reads = reads

    def __getattr__(self, name: str):
        self._reads[0] += 1
        return getattr(self._entry, name)


def _log_reads(check, messages: int) -> "tuple[int, int]":
    view = clean_view(random.Random(9), 12, 4, messages)
    reads = [0]
    view.delivered = {
        host_id: [CountedEntry(entry, reads) for entry in log]
        for host_id, log in view.delivered.items()
    }
    assert check(view) == []
    return reads[0], sum(len(log) for log in view.delivered.values())


def test_audit_reads_grow_with_deliveries_not_their_square():
    for check in (check_causal_order, check_mutual_consistency):
        small_reads, small = _log_reads(check, 150)
        large_reads, large = _log_reads(check, 600)
        assert 3.5 <= large / small <= 4.5
        assert large_reads <= 6 * small_reads
        # A handful of reads per delivery, whatever the run's length.
        assert large_reads <= 8 * large
    # The replaced RT306 rescanned the publisher's log for every message.
    small_reads, _ = _log_reads(oracle_causal_order, 150)
    large_reads, _ = _log_reads(oracle_causal_order, 600)
    assert large_reads >= 10 * small_reads


# ---------------------------------------------------------------------------
# One delivery index per audit, read from the id columns
# ---------------------------------------------------------------------------


class OracleDeliveryIndex:
    """The index as it was built from a ``{msg: position}`` dict per host."""

    def __init__(self, view: RunView):
        self.hosts = view.hosts()
        self.maps: Dict[int, Dict[int, int]] = {
            host_id: {
                msg_id: position
                for position, msg_id in enumerate(_ids_of(view.delivered[host_id]))
            }
            for host_id in self.hosts
        }


_ids_of = invariants._ids_of


def oracle_exactly_once(view: RunView, complete: bool = True) -> List[Finding]:
    findings: List[Finding] = []
    counts: Dict[int, Dict[int, int]] = {}
    for host_id in view.hosts():
        per_host: Dict[int, int] = {}
        for msg_id in _delivered_ids(view, host_id):
            per_host[msg_id] = per_host.get(msg_id, 0) + 1
        counts[host_id] = per_host
        duplicates = sorted(m for m, n in per_host.items() if n > 1)
        if duplicates:
            findings.append(
                _finding(
                    "RT301",
                    f"host {host_id} delivered messages more than once: "
                    f"{duplicates[:8]}",
                    f"host {host_id}",
                )
            )
    if not complete:
        return findings
    for msg_id in sorted(view.published):
        message = view.published[msg_id]
        missing = [
            member
            for member in sorted(view.members(message.group))
            if counts.get(member, {}).get(msg_id, 0) == 0
        ]
        if missing:
            findings.append(
                _finding(
                    "RT302",
                    f"message {msg_id} (group {message.group}) never "
                    f"delivered at members {missing}",
                    f"msg {msg_id}",
                )
            )
        if len(findings) >= MAX_FINDINGS_PER_CHECK:
            break
    return findings


def assert_same_index(view: RunView) -> None:
    """What the index holds: the hosts, each host's positions and, per host
    that delivered a message twice, those messages, sorted."""
    index = invariants._DeliveryIndex(view)
    oracle = OracleDeliveryIndex(view)
    assert index.hosts == oracle.hosts
    for host_id in oracle.hosts:
        assert index.positions_at(host_id) == oracle.maps[host_id]
        counts = Counter(_ids_of(view.delivered[host_id]))
        again = sorted(m for m, n in counts.items() if n > 1)
        assert index.duplicates.get(host_id, []) == again


def empty_host(view: RunView, rng: random.Random) -> None:
    """A member that delivered nothing (its log is there, and empty)."""
    if view.delivered:
        view.delivered[rng.choice(sorted(view.delivered))] = []


def duplicate_many(view: RunView, rng: random.Random) -> None:
    """More than 25 hosts' worth of RT301 findings, so the cap is reached
    before RT302 looks at its first message."""
    for log in view.delivered.values():
        if log:
            log.append(log[0]._replace(time=log[-1].time))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hosts=st.integers(1, 30),
    groups=st.integers(1, 4),
    messages=st.integers(0, 40),
    breaks=st.lists(
        st.sampled_from(BREAKS + (empty_host, duplicate_many)), max_size=4
    ),
    complete=st.booleans(),
)
def test_one_columnar_index_gives_the_same_findings(
    seed, hosts, groups, messages, breaks, complete
):
    rng = random.Random(seed)
    view = clean_view(rng, hosts, groups, messages)
    for damage in (None,) + tuple(breaks):
        if damage is not None:
            damage(view, rng)
        assert_same_index(view)
        assert check_exactly_once(view, complete) == oracle_exactly_once(view, complete)
        assert_same_findings(view)
        assert verify_run(view, complete=complete) == (
            check_group_order(view)
            + oracle_exactly_once(view, complete)
            + check_no_residual_buffering(view)
            + check_publisher_fifo(view)
            + oracle_mutual_consistency(view)
            + oracle_causal_order(view)
            + check_stability(view)
        )


def test_a_gap_duplicates_and_an_empty_log_are_named_as_before():
    view = clean_view(random.Random(4), 6, 3, 30)
    drop_one(view, random.Random(1))
    duplicate_one(view, random.Random(2))
    empty_host(view, random.Random(3))
    found = check_exactly_once(view)
    assert {f.code for f in found} == {"RT301", "RT302"}
    assert found == oracle_exactly_once(view)
    nobody = RunView(
        delivered={},
        membership={0: frozenset({1, 2})},
        published={5: PublishedEntry(5, 0, 1, 0.0)},
    )
    assert [f.message for f in check_exactly_once(nobody)] == [
        "message 5 (group 0) never delivered at members [1, 2]"
    ]
    assert check_exactly_once(nobody) == oracle_exactly_once(nobody)
    assert verify_run(nobody) == oracle_exactly_once(nobody)


def test_verify_run_builds_one_delivery_index(monkeypatch):
    built = []

    class Counted(invariants._DeliveryIndex):
        def __init__(self, view: RunView):
            built.append(view)
            super().__init__(view)

    monkeypatch.setattr(invariants, "_DeliveryIndex", Counted)
    view = clean_view(random.Random(6), 8, 3, 60)
    swap_two(view, random.Random(7))
    duplicate_one(view, random.Random(8))
    assert verify_run(view)
    assert len(built) == 1
    # Each check called alone still builds its own.
    check_exactly_once(view)
    check_mutual_consistency(view)
    check_causal_order(view)
    assert len(built) == 4


def columnar_view(hosts: int = 128, per_host: int = 500, groups: int = 16) -> RunView:
    """``hosts`` fabric-style delivery logs (id, time and header columns) of
    ``per_host`` deliveries each: every host is a member of ``groups / 4``
    groups, and every member delivers its groups' messages in one order."""
    lanes = groups // 4
    membership = {
        g: frozenset(h for h in range(hosts) if h % lanes == g % lanes)
        for g in range(groups)
    }
    published: Dict[int, PublishedEntry] = {}
    delivered = {h: DeliveryLog() for h in range(hosts)}
    for msg_id in range(per_host * groups // lanes):
        group = msg_id % groups
        members = sorted(membership[group])
        sender = members[msg_id % len(members)]
        published[msg_id] = PublishedEntry(msg_id, group, sender, float(msg_id))
        header = MessageHeader(
            Stamp(group, msg_id // groups + 1), None, msg_id, sender, float(msg_id)
        )
        for member in members:
            delivered[member].add(msg_id + 0.5, header)
    return RunView(delivered=delivered, membership=membership, published=published)


#: the audit's tracemalloc peak per delivery on :func:`columnar_view`
#: (64 000 deliveries): 114.9 B when each check built its own index from a
#: dict per host and RT301 counted into a dict per host, 43.0 B with one
#: index read from the id columns
AUDIT_PEAK_BYTES_PER_DELIVERY = 70


def test_the_audit_peak_is_bounded_per_delivery():
    view = columnar_view()
    deliveries = sum(len(log) for log in view.delivered.values())
    assert deliveries == 64_000
    assert verify_run(view) == []  # warm: the checks' own caches
    gc.collect()
    tracemalloc.start()
    try:
        assert verify_run(view) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / deliveries <= AUDIT_PEAK_BYTES_PER_DELIVERY
