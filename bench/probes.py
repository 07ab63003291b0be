"""Layer probes for the traced run: replays and A/B configurations.

Some layers have no public seam a span can sit on (the reliable link
layer lives inside ``OrderingFabric``; a monitor is a trace subscriber).
They are measured here either by replaying inputs captured during the
traced rounds into the layer's public function, or by running the same
traffic under two configurations.  Every probe returns per-layer metric
values keyed by the names in ``layers.PER_LAYER``.
"""

import random
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.explore import ExploreConfig, explore
from repro.check.invariants import verify_run
from repro.core.delivery import DeliveryState
from repro.core.protocol import OrderingFabric
from repro.obs.live import LiveMonitor, PhaseLatencyTracker
from repro.sim.events import Simulator
from repro.topology.routing import RoutingTable

from workloads import Draws

#: operations each replay performs at scale 1
REPLAY_OPS = 100_000
BARE_EVENTS = 200_000
#: arrivals shuffled together by the reordered delivery replay
SHUFFLE_BATCH = 32
#: turns each A/B variant takes
AB_TURNS = 3
#: the one fixed scenario the explorer probe enumerates
EXPLORE_SCENARIO = ExploreConfig(
    groups=3, hosts=4, messages=1, seed=1, max_schedules=400, max_depth=120
)


def _noop() -> None:
    pass


def bare_dispatch(scale: float) -> Dict[str, float]:
    """No-op events through ``Simulator.schedule``/``run``: the loop floor."""
    events = max(1000, int(BARE_EVENTS * scale))
    sim = Simulator()
    began = perf_counter()
    for index in range(events):
        sim.schedule(index * 0.001, _noop)
    sim.run()
    return {"sim.bare_dispatch_us": (perf_counter() - began) / events * 1e6}


def routing_queries(
    routing: RoutingTable, pairs: Sequence[Tuple[int, int]], scale: float
) -> Dict[str, float]:
    """Captured ``RoutingTable.delay`` queries against a cold and a warm table."""
    if not pairs:
        return {}
    cold = RoutingTable(routing.topology)
    cold_times: List[float] = []
    for src, dst in pairs:
        rows = cold.cache_size()
        began = perf_counter()
        cold.delay(src, dst)
        spent = perf_counter() - began
        if cold.cache_size() > rows:
            cold_times.append(spent)
    target = max(len(pairs), int(REPLAY_OPS * scale))
    done = 0
    began = perf_counter()
    while done < target:
        for src, dst in pairs:
            cold.delay(src, dst)
        done += len(pairs)
    warm = (perf_counter() - began) / done
    out = {"topology.routing_warm_query_us": warm * 1e6}
    if cold_times:
        out["topology.routing_cold_query_us"] = statistics.mean(cold_times) * 1e6
    return out


def delivery_replay(
    fabric: OrderingFabric, arrivals: Sequence[Tuple[int, Any]], scale: float
) -> Dict[str, float]:
    """Captured stamps into fresh ``DeliveryState``s, in and out of order.

    ``arrivals`` is every ``(host, stamp)`` a receiver saw, from the first
    one on, so a fresh state per host replays it exactly.  The shuffled
    pass permutes each host's arrivals inside batches of
    ``SHUFFLE_BATCH``, which sends most of them through the hold-back
    buffer and its drain.
    """
    by_host: Dict[int, List[Any]] = {}
    for host_id, stamp in arrivals:
        by_host.setdefault(host_id, []).append(stamp)
    if not by_host:
        return {}
    rng = random.Random(0)
    shuffled: Dict[int, List[Any]] = {}
    for host_id, stamps in by_host.items():
        mixed: List[Any] = []
        for start in range(0, len(stamps), SHUFFLE_BATCH):
            batch = stamps[start : start + SHUFFLE_BATCH]
            rng.shuffle(batch)
            mixed.extend(batch)
        shuffled[host_id] = mixed

    def one_pass(streams: Dict[int, List[Any]]) -> Tuple[float, int]:
        states = {
            host_id: DeliveryState(
                host_id,
                fabric.membership.groups_of(host_id),
                fabric.graph.relevant_atoms_of(host_id),
            )
            for host_id in streams
        }
        began = perf_counter()
        for host_id, stamps in streams.items():
            receive = states[host_id].on_receive
            for stamp in stamps:
                receive(stamp)
        spent = perf_counter() - began
        return spent, sum(state.delivered_count for state in states.values())

    per_pass = len(arrivals)
    passes = max(1, -(-int(REPLAY_OPS * scale) // per_pass))
    inorder = reordered = 0.0
    for _ in range(passes):
        spent, delivered = one_pass(by_host)
        inorder += spent
        spent, delivered_reordered = one_pass(shuffled)
        reordered += spent
        # A live capture stops mid-flight, so a few stamps may wait for
        # predecessors it never saw; arrival order must not change which.
        if delivered != delivered_reordered:
            raise AssertionError(
                f"delivery replay: {delivered} delivered in order, "
                f"{delivered_reordered} reordered"
            )
    ops = per_pass * passes
    return {
        "core.delivery.replay_inorder_us": inorder / ops * 1e6,
        "core.delivery.replay_shuffled_us": reordered / ops * 1e6,
    }


def observer_replay(fabric: OrderingFabric, scale: float) -> Dict[str, float]:
    """The recorded trace into a fresh monitor and a fresh latency tracker."""
    records = list(fabric.trace)
    if not records:
        return {}
    membership = {
        group: frozenset(fabric.membership.members(group))
        for group in fabric.membership.groups()
    }
    passes = max(1, -(-int(REPLAY_OPS * scale) // len(records)))
    monitor_time = tracker_time = 0.0
    for _ in range(passes):
        monitor = LiveMonitor(retain_audit=False)
        monitor.adopt_membership(membership)
        observe = monitor.observe
        began = perf_counter()
        for record in records:
            observe(record)
        monitor_time += perf_counter() - began
        track = PhaseLatencyTracker().observe
        began = perf_counter()
        for record in records:
            track(record)
        tracker_time += perf_counter() - began
    ops = len(records) * passes
    return {
        "obs.monitor_us_per_record": monitor_time / ops * 1e6,
        "obs.latency_tracker_us_per_record": tracker_time / ops * 1e6,
    }


def explorer(scale: float) -> Dict[str, float]:
    """Schedules per second of the model checker on one fixed scenario."""
    rates = []
    for _ in range(3 if scale >= 1.0 else 1):
        began = perf_counter()
        result = explore(EXPLORE_SCENARIO)
        rates.append(result.schedules / (perf_counter() - began))
        if not result.ok:
            raise AssertionError(f"explorer found violations: {result.violations}")
    return {"check.explore_schedules_per_s": statistics.median(rates)}


def _spaced_run(fabric: OrderingFabric, seed: int, count: int, gap_ms: float) -> float:
    """Wall seconds to publish ``count`` spaced messages and quiesce."""
    draws = Draws(seed)
    members = {
        g: sorted(hosts) for g, hosts in fabric.membership.snapshot().items()
    }
    began = perf_counter()
    base = fabric.sim.now
    for index in range(count):
        group, sender = draws.next(members)
        fabric.sim.schedule_at(base + gap_ms * index, fabric.publish, sender, group)
    fabric.run()
    return perf_counter() - began


def ab_ratios(
    bed: Any,
    seed: int,
    count: int,
    gap_ms: float,
    variants: Dict[str, Dict[str, Any]],
    audited: Optional[str] = None,
) -> Dict[str, float]:
    """Median wall of each fabric variant over the plain one, same traffic.

    Every variant gets its own warmed fabric on the bed's substrate
    (``variants`` maps a label to ``SimBed.build_fabric`` arguments); the
    variants take turns (A B C A B C ...) so drift hits them alike.
    ``audited`` names a variant that also pays one ``verify_run`` over
    its whole run, spread evenly over its turns.
    """
    fabrics = {"plain": bed.build_fabric(trace=False)[0]}
    for label, kwargs in variants.items():
        fabrics[label] = bed.build_fabric(**kwargs)[0]
    walls: Dict[str, List[float]] = {label: [] for label in fabrics}
    for turn in range(AB_TURNS):
        for label, fabric in fabrics.items():
            walls[label].append(_spaced_run(fabric, seed + turn, count, gap_ms))
    if audited is not None:
        began = perf_counter()
        findings = verify_run(fabrics[audited], complete=True, causal=True)
        share = (perf_counter() - began) / AB_TURNS
        if findings:
            raise AssertionError(f"A/B audit failed: {findings[:3]}")
        walls[audited] = [wall + share for wall in walls[audited]]
    plain = statistics.median(walls["plain"])
    return {
        label: statistics.median(times) / plain
        for label, times in walls.items()
        if label != "plain"
    }
