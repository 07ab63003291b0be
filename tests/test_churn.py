"""Tests for sustained-churn campaigns and the RT32x cross-epoch audit.

Covers the churn script (:mod:`repro.faults.churn`), campaigns with churn
(:mod:`repro.faults.campaign`), the epoch-fence
forensics cause, and the end-to-end acceptance scenario: ≥ 50 join/leave
events composed with crash/partition faults — including a permanent
crash landing mid-epoch-switch — completing with zero RT30x/RT32x
findings, deterministically, on both runtime backends.
"""

import random

import pytest

from repro.check.churn import verify_churn
from repro.faults.campaign import CampaignConfig, execute_campaign, run_campaign
from repro.faults.churn import ChurnPlan, random_churn
from repro.obs.forensics import CAUSE_EPOCH_SWITCH, JourneyIndex
from repro.runtime.trace import Trace


# -- churn driver -----------------------------------------------------------


def sample_snapshot():
    return {
        0: frozenset(range(8)),
        1: frozenset({2, 3, 4, 5}),
        2: frozenset({6, 7, 8, 9}),
    }


def test_random_churn_is_deterministic():
    a = random_churn(sample_snapshot(), 16, random.Random(9), 100.0, events=30)
    b = random_churn(sample_snapshot(), 16, random.Random(9), 100.0, events=30)
    assert a.events == b.events
    assert a.switch_times == b.switch_times


def test_random_churn_valid_when_replayed():
    plan = random_churn(
        sample_snapshot(), 16, random.Random(3), 100.0, events=60, min_size=2
    )
    assert len(plan.events) == 60
    working = {g: set(m) for g, m in sample_snapshot().items()}
    for event in plan.events:
        members = working[event.group]
        if event.op == "join":
            assert event.host not in members
            members.add(event.host)
        else:
            assert event.host in members
            members.discard(event.host)
            assert len(members) >= 2  # never shrinks below min_size
    # Every event lands before the last switch, so all are applied.
    assert all(e.at <= plan.switch_times[-1] for e in plan.events)


def test_churn_batches_partition_all_events():
    plan = random_churn(sample_snapshot(), 16, random.Random(5), 80.0, events=25)
    batches = plan.batches()
    assert [at for at, _ in batches] == plan.switch_times
    flattened = [e for _, ops in batches for e in ops]
    assert sorted(flattened, key=lambda e: e.at) == sorted(
        plan.events, key=lambda e: e.at
    )
    for at, ops in batches:
        assert all(e.at <= at for e in ops)


def test_zipf_popularity_prefers_low_ranks():
    plan = random_churn(
        sample_snapshot(), 32, random.Random(0), 100.0, events=300, min_size=2
    )
    counts = {g: 0 for g in sample_snapshot()}
    for event in plan.events:
        counts[event.group] += 1
    assert counts[0] > counts[2]  # rank-0 group churns the most


# -- forensics: the epoch_switch stall cause --------------------------------


def stalled_trace(switch_begin, switch_end, drain_at):
    """Msg 2 buffers at t=1 waiting for msg 1's number, draining at
    ``drain_at``; an epoch switch spans ``switch_begin..switch_end``."""
    trace = Trace(enabled=True)
    trace.record(0.0, "publish", msg=1, group=0, sender=0)
    trace.record(0.2, "atom_seq", msg=1, atom="Q(0,1)", seq=1, node=0)
    trace.record(0.5, "publish", msg=2, group=0, sender=2)
    trace.record(0.7, "atom_seq", msg=2, atom="Q(0,1)", seq=2, node=0)
    trace.record(
        1.0, "buffer", msg=2, host=1, group=0, blocked_kind="atom",
        blocked_on="Q(0,1)", have_seq=0, expected_seq=1,
    )
    trace.record(
        switch_begin, "epoch_switch", phase="begin", epoch=1, groups=2
    )
    trace.record(
        switch_end, "epoch_switch", phase="end", epoch=1, drain_events=9
    )
    trace.record(drain_at, "deliver", msg=1, host=1, group=0)
    trace.record(drain_at, "drain", msg=2, host=1, group=0, unblocked_by=1)
    trace.record(drain_at, "deliver", msg=2, host=1, group=0)
    return trace


def test_epoch_switch_attributed_as_stall_cause():
    # The stall (1.0..30.0) overlaps the switch window (5..25): absent
    # stronger fault evidence the verdict is the reconfiguration itself,
    # not the in_flight fallback.
    index = JourneyIndex(stalled_trace(5.0, 25.0, 30.0))
    (event,) = index.buffer_events
    assert event.cause == CAUSE_EPOCH_SWITCH
    assert event.evidence.get(CAUSE_EPOCH_SWITCH) == 1
    # A stall resolved before the switch began is not blamed on it.
    index2 = JourneyIndex(stalled_trace(5.0, 9.0, 2.0))
    (event2,) = index2.buffer_events
    assert event2.cause != CAUSE_EPOCH_SWITCH
    assert CAUSE_EPOCH_SWITCH not in event2.evidence


def test_fences_registered_but_not_counted_as_messages():
    trace = Trace(enabled=True)
    trace.record(1.0, "epoch_fence", phase="publish", msg=7, group=0, epoch=1,
                 sender=0)
    trace.record(1.0, "atom_seq", msg=7, atom="A(0)", seq=4, node=0)
    trace.record(3.0, "epoch_fence", phase="deliver", msg=7, group=0, epoch=1,
                 host=2)
    index = JourneyIndex(trace)
    report = index.stall_report(threshold=0.0)
    assert report["messages"] == 0
    assert report["fences"] == 1
    # The fence's sequence number is registered, so a gap blocked on it
    # is explainable.
    assert index.journeys[7].is_fence


# -- campaigns --------------------------------------------------------------


def fast_config(**overrides):
    base = dict(
        hosts=12,
        groups=4,
        events=20,
        churn_events=12,
        switches=2,
        seed=3,
        horizon=150.0,
        loss_rate=0.005,
        node_crashes=1,
        host_crashes=0,
        link_outages=0,
        loss_windows=0,
        delay_spikes=0,
        permanent_crash=True,
        mid_switch_crash=True,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_small_campaign_clean_and_structured():
    run = execute_campaign(fast_config())
    report = run.report
    assert report["ok"], report["findings"]
    assert report["quiescent"]
    assert report["published"] == 20
    assert len(report["epochs"]) == 3  # 2 switches -> 3 epochs
    assert len(run.fabrics) == 3
    assert [f.epoch for f in run.fabrics] == [0, 1, 2]
    # Every non-final epoch switched online with fences.
    for summary in report["epochs"][:-1]:
        assert summary["switch"]["online"]
        assert summary["fences"] == summary["groups"]
    assert report["epochs"][-1]["switch"] is None
    assert report["mid_switch_crash"] is not None
    assert report["failovers"] >= 1  # the mid-switch crash healed
    # The epoch logs re-verify clean in isolation too.
    assert verify_churn(run.epoch_logs) == []


def test_campaign_is_deterministic_across_runs():
    first = run_campaign(fast_config())
    second = run_campaign(fast_config())
    assert first["delivery_digest"] == second["delivery_digest"]
    assert first["churn"] == second["churn"]
    assert first["faults"] == second["faults"]
    assert first["epochs"] == second["epochs"]
    assert first["events"] == second["events"]


def test_campaign_differs_across_seeds():
    a = run_campaign(fast_config())
    b = run_campaign(fast_config(seed=4))
    assert a["delivery_digest"] != b["delivery_digest"]


def test_publishes_deferred_not_dropped():
    # All configured events are published even when ticks land inside a
    # fence-drain blackout (they defer to the next epoch's start).
    report = run_campaign(fast_config(events=40, switches=3))
    assert report["ok"], report["findings"]
    assert report["published"] == 40


def test_acceptance_scale_campaign():
    """ISSUE acceptance: >= 50 churn events composed with crash faults,
    a permanent crash mid-epoch-switch, zero RT30x/RT32x findings,
    deterministic across two runs."""
    # 80 publishes, 50 churn events, every fault kind but link outages.
    config = CampaignConfig(seed=0, events=80, churn_events=50, link_outages=0)
    assert config.churn_events >= 50
    assert config.mid_switch_crash and config.permanent_crash
    first = run_campaign(config)
    assert first["ok"], first["findings"]
    assert first["churn_applied"] >= 50
    assert first["mid_switch_crash"] is not None
    assert first["quiescent"]
    second = run_campaign(config)
    assert second["delivery_digest"] == first["delivery_digest"]


def test_asyncio_backend_campaign_clean():
    """The live runtime passes the same invariants (not byte-identity:
    real timers jitter arrival order; see docs/FAULTS.md)."""
    report = run_campaign(
        fast_config(
            backend="asyncio",
            time_scale=0.0003,
            loss_rate=0.0,
            churn_events=8,
            events=12,
        )
    )
    assert report["ok"], report["findings"]
    assert report["quiescent"]


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(hosts=2, churn_events=50).validate()
    CampaignConfig(hosts=2).validate()  # two hosts suffice without churn
    with pytest.raises(ValueError):
        CampaignConfig(backend="threads").validate()
    with pytest.raises(ValueError):
        CampaignConfig(horizon=0.0).validate()


def test_batches_empty_without_switches():
    assert ChurnPlan(events=[], switch_times=[]).batches() == []
    run = execute_campaign(
        fast_config(switches=0, churn_events=0, mid_switch_crash=False)
    )
    # Degenerates to a single-epoch fault campaign; still clean.
    assert run.report["ok"], run.report["findings"]
    assert len(run.fabrics) == 1
