"""Heartbeat detection and live sequencing-node failover.

The acceptance property of the robustness layer: a sequencing node that
crashes permanently mid-traffic is suspected by the heartbeat detector,
its atoms relocate live to a standby machine, in-flight traffic replays
from retransmission buffers — and every ordering invariant (per-group
total order, exactly-once, causal order) holds for every subscriber.
"""

import random

import pytest

from repro.check import verify_run
from repro.faults import HeartbeatDetector, choose_standby, fail_over, wire_failover
from repro.pubsub.membership import GroupMembership
from repro.runtime.errors import SimulationError


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def reliable_fabric(env, **kwargs):
    return env.build_fabric(
        triangle_membership(), retransmit_timeout=5.0, **kwargs
    )


def busiest_node(fabric):
    return max(
        fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
    )


def publish_mixed(fabric, count, spread, seed=9):
    rng = random.Random(seed)
    for _ in range(count):
        group = rng.choice(sorted(fabric.membership.groups()))
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.sim.schedule_at(spread * rng.random(), fabric.publish, sender, group)


# -- relocate_node (the fabric primitive) ------------------------------------


def test_relocate_requires_reliability(env32):
    fabric = env32.build_fabric(triangle_membership())
    with pytest.raises(SimulationError):
        fabric.relocate_node(0, 1)


def test_relocate_moves_machine_and_placement(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    old_machine = node.machine
    target = (old_machine + 1) % fabric.topology.n_nodes
    record = fabric.relocate_node(node.node_id, target)
    assert node.machine == target
    assert record.old_machine == old_machine
    assert record.new_machine == target
    placement_entry = next(
        n for n in fabric.placement.nodes if n.node_id == node.node_id
    )
    assert placement_entry.machine == target
    assert fabric.failovers == [record]


def test_relocate_retires_channels(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    publish_mixed(fabric, 6, spread=5.0)
    fabric.run()
    touching = [
        key for key in fabric.network.channels if node.name in key
    ]
    assert touching  # the busiest node saw traffic
    fabric.relocate_node(node.node_id, (node.machine + 1) % fabric.topology.n_nodes)
    assert all(
        node.name not in key for key in fabric.network.channels
    )
    assert fabric.network.channels_retired >= len(touching)


def test_failover_mid_traffic_preserves_all_invariants(env32):
    """Permanent crash + manual failover: order, exactly-once, causality."""
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    target = (node.machine + 7) % fabric.topology.n_nodes
    fabric.sim.schedule_at(10.0, node.crash, float("inf"))
    fabric.sim.schedule_at(
        40.0, fabric.relocate_node, node.node_id, target, 1.0
    )
    publish_mixed(fabric, 30, spread=80.0)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert node.machine == target
    assert len(fabric.failovers) == 1
    assert verify_run(fabric, complete=True, causal=True) == []
    # Sequencing counters continued across the move: stamps stay unique
    # and dense enough that every published message was delivered.
    delivered_ids = {
        r.msg_id for p in fabric.host_processes.values() for r in p.delivered
    }
    assert delivered_ids == set(fabric.published)


def test_failover_replays_pending_buffers(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule_at(2.0, node.crash, float("inf"))
    publish_mixed(fabric, 10, spread=8.0)
    fabric.sim.run(until=30.0)
    # Traffic toward the dead node is parked in retransmission buffers.
    parked = sum(
        len(link.pending)
        for (src, dst), link in fabric._links.items()
        if dst == node.name
    )
    assert parked > 0
    record = fabric.relocate_node(
        node.node_id, (node.machine + 1) % fabric.topology.n_nodes
    )
    assert record.replayed >= parked
    assert fabric.retransmissions_by_cause.get("failover_replay", 0) >= parked
    fabric.run()
    assert verify_run(fabric, complete=True, causal=True) == []


def test_transfer_delay_keeps_node_down(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    node.crash(float("inf"))
    fabric.relocate_node(node.node_id, node.machine, transfer_delay=5.0)
    assert node.is_down  # still transferring state
    fabric.sim.schedule(6.0, lambda: None)
    fabric.run()
    assert not node.is_down  # the relocation cleared the permanent crash


# -- standby selection -------------------------------------------------------


def test_choose_standby_prefers_subscriber_routers(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    groups = set()
    for atom_id in node.atom_runtimes:
        groups.update(atom_id.groups)
    member_routers = {
        fabric._host_by_id[m].router
        for g in groups
        for m in fabric.membership.members(g)
    }
    for seed in range(5):
        standby = choose_standby(fabric, node.node_id, random.Random(seed))
        assert standby != node.machine
        assert standby in member_routers


def test_fail_over_default_rng_deterministic(env32):
    targets = []
    for _ in range(2):
        fabric = reliable_fabric(env32)
        node = busiest_node(fabric)
        record = fail_over(fabric, node.node_id)
        targets.append(record.new_machine)
    assert targets[0] == targets[1]


# -- the heartbeat detector --------------------------------------------------


def test_detector_validation(env32):
    fabric = reliable_fabric(env32)
    with pytest.raises(ValueError):
        HeartbeatDetector(fabric, interval=0.0)
    with pytest.raises(ValueError):
        HeartbeatDetector(fabric, interval=5.0, suspect_after=0)


def test_detector_no_false_positives_when_healthy(env32):
    fabric = reliable_fabric(env32)
    detector = HeartbeatDetector(fabric, interval=5.0, suspect_after=3)
    detector.start()
    publish_mixed(fabric, 10, spread=50.0)
    fabric.sim.run(until=150.0)
    detector.stop()
    fabric.run()
    assert detector.suspicions == []
    assert detector.heartbeats_sent > 0
    assert detector.pongs_received > 0
    assert fabric.pending_messages() == {}


def test_detector_suspects_crashed_node(env32):
    fabric = reliable_fabric(env32)
    detector = HeartbeatDetector(fabric, interval=5.0, suspect_after=3)
    node = busiest_node(fabric)
    fabric.sim.schedule_at(20.0, node.crash, float("inf"))
    detector.start()
    fabric.sim.run(until=200.0)
    detector.stop()
    suspected = [node_id for _t, node_id, _s in detector.suspicions]
    assert node.node_id in suspected
    # Suspicion came after the crash, within a few thresholds.
    time = next(t for t, n, _s in detector.suspicions if n == node.node_id)
    assert 20.0 < time < 20.0 + 3 * detector.threshold(node.node_id)


def test_detector_stops_pinging_suspected_nodes(env32):
    fabric = reliable_fabric(env32)
    detector = HeartbeatDetector(fabric, interval=5.0, suspect_after=2)
    node = busiest_node(fabric)
    node.crash(float("inf"))
    detector.start()
    fabric.sim.run(until=300.0)
    detector.stop()
    fabric.run()
    assert [n for _t, n, _s in detector.suspicions] == [node.node_id]
    # A suspected node is not pinged again (no re-suspicion spam).
    assert detector.suspicions[0][1] == node.node_id


def test_detector_clear_restores_monitoring(env32):
    fabric = reliable_fabric(env32)
    detector = HeartbeatDetector(fabric, interval=5.0, suspect_after=2)
    node = busiest_node(fabric)
    node.crash(30.0)
    detector.start()
    fabric.sim.run(until=100.0)
    assert [n for _t, n, _s in detector.suspicions] == [node.node_id]
    detector.clear(node.node_id)
    fabric.sim.run(until=200.0)
    detector.stop()
    fabric.run()
    # The node recovered at t=30; after clear it is monitored and healthy.
    assert [n for _t, n, _s in detector.suspicions] == [node.node_id]


# -- wired end-to-end --------------------------------------------------------


def test_wired_failover_end_to_end(env32):
    """Detection -> standby selection -> live relocation, automatically."""
    fabric = reliable_fabric(env32)
    detector = HeartbeatDetector(fabric, interval=5.0, suspect_after=3)
    wire_failover(fabric, detector, rng=random.Random(0), transfer_delay=1.0)
    node = busiest_node(fabric)
    old_machine = node.machine
    fabric.sim.schedule_at(15.0, node.crash, float("inf"))
    publish_mixed(fabric, 24, spread=60.0)
    detector.start()
    fabric.sim.run(until=250.0)
    detector.stop()
    fabric.run()
    assert fabric.sim.pending == 0
    failed_over = [r for r in fabric.failovers if r.node_id == node.node_id]
    assert len(failed_over) == 1
    assert failed_over[0].old_machine == old_machine
    assert not node.is_down
    assert verify_run(fabric, complete=True, causal=True) == []


def test_failover_and_retransmit_metrics_exported(env32):
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    fabric = env32.build_fabric(
        triangle_membership(), retransmit_timeout=5.0, registry=registry
    )
    detector = HeartbeatDetector(
        fabric, interval=5.0, suspect_after=3, registry=registry
    )
    wire_failover(fabric, detector, rng=random.Random(0))
    node = busiest_node(fabric)
    fabric.sim.schedule_at(10.0, node.crash, float("inf"))
    publish_mixed(fabric, 15, spread=40.0)
    detector.start()
    fabric.sim.run(until=200.0)
    detector.stop()
    fabric.run()
    registry.collect()
    assert registry.get("repro_failovers").value == len(fabric.failovers) >= 1
    assert registry.get("repro_link_failures").value == 0
    assert registry.get("repro_detector_heartbeats").value > 0
    assert registry.get("repro_detector_pongs").value > 0
    assert registry.get("repro_detector_suspicions").value >= 1
    by_cause = fabric.retransmissions_by_cause
    for cause in by_cause:
        counter = registry.get("repro_retransmissions_by_cause", cause=cause)
        assert counter.value == by_cause[cause]
    # Per-link drop counters split by cause.
    total_loss = sum(
        registry.get("repro_link_drops", cause="loss", src=src, dst=dst).value
        for (src, dst) in (
            (key[0], key[1])
            for key in (
                tuple(
                    ":".join(str(part) for part in name)
                    for name in channel_key
                )
                for channel_key in fabric.network.channels
            )
        )
    )
    assert total_loss == sum(
        c.loss_drops for c in fabric.network.channels.values()
    )


def test_failover_of_healthy_node_is_safe(env32):
    """A false suspicion relocates a live node — and nothing breaks."""
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    fabric.sim.schedule_at(
        20.0,
        fabric.relocate_node,
        node.node_id,
        (node.machine + 3) % fabric.topology.n_nodes,
        0.5,
    )
    publish_mixed(fabric, 25, spread=50.0)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert verify_run(fabric, complete=True, causal=True) == []
