"""The RT3xx runtime verifier: clean runs pass, corrupted logs fail.

The verifier audits delivery logs, so seeded corruption of those logs is
the natural negative test: each mutation must trip exactly the check
that claims to detect it.
"""

import random

from repro.check import verify_run
from repro.check.invariants import (
    check_causal_order,
    check_exactly_once,
    check_group_order,
    check_mutual_consistency,
    check_no_residual_buffering,
    check_publisher_fifo,
    check_stability,
)
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def ran_fabric(env, n_messages=20, seed=2, spread=50.0, **kwargs):
    fabric = env.build_fabric(triangle_membership(), **kwargs)
    rng = random.Random(seed)
    for _ in range(n_messages):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        # Spread publishes over virtual time so publish-after-deliver
        # dependencies actually exist (all-at-zero has no causality).
        fabric.sim.schedule_at(spread * rng.random(), fabric.publish, sender, group)
    fabric.run()
    return fabric


def test_clean_run_has_no_findings(env32):
    fabric = ran_fabric(env32)
    assert verify_run(fabric, complete=True, causal=True) == []


def test_clean_lossy_run_has_no_findings(env32):
    fabric = ran_fabric(env32, loss_rate=0.15, seed=4)
    assert verify_run(fabric, complete=True, causal=True) == []


def test_group_order_violation_detected(env32):
    fabric = ran_fabric(env32)
    # Corrupt host 1's log: reverse its deliveries for group 0.
    process = fabric.host_processes[1]
    group0 = [r for r in process.delivered if r.stamp.group == 0]
    assert len(group0) >= 2
    others = [r for r in process.delivered if r.stamp.group != 0]
    process.delivered[:] = others + list(reversed(group0))
    findings = check_group_order(fabric)
    assert findings and all(f.code == "RT300" for f in findings)
    assert any("group 0" in (f.anchor or "") for f in findings)


def test_duplicate_delivery_detected(env32):
    fabric = ran_fabric(env32)
    process = fabric.host_processes[2]
    process.delivered.append(process.delivered[0])
    findings = check_exactly_once(fabric, complete=False)
    assert [f.code for f in findings] == ["RT301"]


def test_missing_delivery_detected(env32):
    fabric = ran_fabric(env32)
    process = fabric.host_processes[3]
    dropped = process.delivered.pop()
    findings = check_exactly_once(fabric, complete=True)
    codes = {f.code for f in findings}
    assert "RT302" in codes
    assert any(f"message {dropped.msg_id}" in f.message for f in findings)
    # With completeness waived, the hole is tolerated.
    assert check_exactly_once(fabric, complete=False) == []


def test_residual_buffering_detected(env32):
    fabric = ran_fabric(env32)
    assert check_no_residual_buffering(fabric) == []
    fabric.pending_messages = lambda: {0: 2}
    findings = check_no_residual_buffering(fabric)
    assert [f.code for f in findings] == ["RT303"]


def test_publisher_fifo_violation_detected(env32):
    fabric = ran_fabric(env32)
    # Find a host that delivered two messages from one (sender, group).
    target = None
    for host_id, process in sorted(fabric.host_processes.items()):
        seen = {}
        for index, record in enumerate(process.delivered):
            key = (record.sender, record.stamp.group)
            if key in seen:
                target = (host_id, seen[key], index)
                break
            seen[key] = index
        if target:
            break
    assert target is not None
    host_id, i, j = target
    log = fabric.host_processes[host_id].delivered
    log[i], log[j] = log[j], log[i]
    findings = check_publisher_fifo(fabric)
    assert findings and all(f.code == "RT304" for f in findings)


def test_mutual_consistency_violation_detected(env32):
    fabric = ran_fabric(env32)
    # Hosts 0 and 2 share group 1 only; swapping two group-1 records at
    # host 0 breaks pairwise agreement (and group order, checked apart).
    process = fabric.host_processes[0]
    group1 = [i for i, r in enumerate(process.delivered) if r.stamp.group == 1]
    assert len(group1) >= 2
    i, j = group1[0], group1[1]
    process.delivered[i], process.delivered[j] = (
        process.delivered[j],
        process.delivered[i],
    )
    findings = check_mutual_consistency(fabric)
    assert findings and all(f.code == "RT305" for f in findings)


def test_causal_order_violation_detected(env32):
    fabric = ran_fabric(env32, n_messages=30)
    assert check_causal_order(fabric) == []
    # Publisher 1 delivered something before publishing a later message;
    # move that dependency to the end of another host's log.
    violation_made = False
    for msg_id in sorted(fabric.published):
        message = fabric.published[msg_id]
        publisher = fabric.host_processes[message.sender]
        deps = [
            r.msg_id for r in publisher.delivered if r.time < message.publish_time
        ]
        if not deps:
            continue
        dep = deps[0]
        for host_id, process in sorted(fabric.host_processes.items()):
            ids = [r.msg_id for r in process.delivered]
            if msg_id in ids and dep in ids and ids.index(dep) < ids.index(msg_id):
                index = ids.index(dep)
                record = process.delivered.pop(index)
                process.delivered.append(record)
                violation_made = True
                break
        if violation_made:
            break
    assert violation_made
    findings = check_causal_order(fabric)
    assert findings and all(f.code == "RT306" for f in findings)


def test_stability_violation_detected(env32):
    fabric = ran_fabric(env32, track_stability=True)
    assert check_stability(fabric) == []
    # Claim stability for a message some member never delivered.
    process = fabric.host_processes[1]
    msg_id = process.delivered[0].msg_id
    message = fabric.published[msg_id]
    victim = sorted(fabric.membership.members(message.group))[0]
    victim_log = fabric.host_processes[victim].delivered
    victim_log[:] = [r for r in victim_log if r.msg_id != msg_id]
    process.stable_ids.add(msg_id)
    findings = check_stability(fabric)
    assert any(f.code == "RT307" for f in findings)


def test_stability_check_skipped_without_tracking(env32):
    fabric = ran_fabric(env32)
    fabric.host_processes[0].stable_ids.add(999)  # nonsense, but untracked
    assert check_stability(fabric) == []


def test_findings_capped(env32):
    from repro.check.invariants import MAX_FINDINGS_PER_CHECK

    fabric = ran_fabric(env32)
    # Destroy every log: the checker must cap, not drown.
    for process in fabric.host_processes.values():
        process.delivered[:] = list(reversed(process.delivered))
    findings = check_group_order(fabric)
    assert len(findings) <= MAX_FINDINGS_PER_CHECK


def test_verify_run_composes_and_orders(env32):
    fabric = ran_fabric(env32)
    process = fabric.host_processes[2]
    process.delivered.append(process.delivered[0])  # RT301
    fabric.pending_messages = lambda: {3: 1}  # RT303
    codes = [f.code for f in verify_run(fabric, complete=False, causal=False)]
    assert "RT301" in codes
    assert "RT303" in codes
    # Composition preserves per-check grouping order (RT300 block first).
    assert codes == sorted(codes)


def test_findings_are_runtime_verify_tool(env32):
    fabric = ran_fabric(env32)
    fabric.host_processes[0].delivered.append(
        fabric.host_processes[0].delivered[0]._replace()
    )
    for finding in verify_run(fabric, complete=False, causal=False):
        assert finding.tool == "runtime-verify"
        assert finding.severity == "error"
