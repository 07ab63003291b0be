"""The service's live monitor at compressed time: LM303, the ``monitors`` verb,
and the ``health`` verb's counts across epoch switches."""

import asyncio
import gc
import json

from repro.obs.live import STALL_THRESHOLD_MS, TelemetrySnapshot
from repro.runtime.service import (
    MONITORS_REPLY_ALERTS,
    STALL_REAL_FLOOR_S,
    OrderingService,
    request,
)

#: the service's default compression: 1 virtual ms = 10 us of real time
TIME_SCALE = 1e-5

#: four groups in a ring, each sharing two members with the next, so
#: every message crosses an overlap atom and hosts hold messages back
RING = {"a": (0, 1, 2, 3), "b": (2, 3, 4, 5), "c": (4, 5, 6, 7), "d": (0, 1, 6, 7)}


async def _ring_service(**kwargs):
    service = OrderingService(n_hosts=16, seed=0, time_scale=TIME_SCALE, **kwargs)
    for topic, hosts in RING.items():
        for host in hosts:
            resp = await service.handle({"op": "subscribe", "host": host, "topic": topic})
            assert resp["ok"]
    return service


async def _publish(service, sender, topic):
    resp = await service.handle({"op": "publish", "sender": sender, "topic": topic})
    assert resp["ok"], resp


def test_stall_threshold_has_a_real_time_floor():
    async def thresholds():
        found = []
        for scale in (1e-5, 1e-3, 1.0):
            service = OrderingService(n_hosts=2, time_scale=scale)
            found.append(service.monitor.stall_threshold_ms)
            service.bus.close()
        return found

    compressed, default, slow = asyncio.run(thresholds())
    assert compressed == STALL_REAL_FLOOR_S / 1e-5 == 5000.0
    assert default == STALL_THRESHOLD_MS  # 50 virtual ms is 50 ms real: no floor
    assert slow == STALL_THRESHOLD_MS


def test_clean_flood_at_compressed_time_raises_no_lm303():
    async def scenario():
        service = await _ring_service()
        # A gen-2 collection of a large test process pauses longer than
        # the 50 ms floor, and the monitor rightly reports that stall.
        gc.disable()
        try:
            topics = sorted(RING)
            for index in range(2000):
                topic = topics[index % len(topics)]
                await _publish(service, RING[topic][index % 4], topic)
                if index % 32 == 31:  # a window of 32 in flight, like live_flood
                    await asyncio.sleep(0)
            await service.handle({"op": "drain"})
            return service.monitor
        finally:
            gc.enable()
            service.bus.close()

    monitor = asyncio.run(scenario())
    assert monitor.delivered_total == 2000 * 4
    # hold-back was exercised: the default threshold would have warned
    assert monitor.latency.summary()["holdback"]["count"] > 0
    assert (monitor.warnings, monitor.violations, monitor.alerts) == (0, 0, [])


def test_link_outage_still_raises_lm303_with_its_cause():
    async def scenario():
        # A lossy service runs the reliable link layer, so an outage is
        # retransmitted through (and attributed), not lost for good.
        service = await _ring_service(loss_rate=0.01)
        try:
            for topic, hosts in RING.items():
                await _publish(service, hosts[0], topic)
            await service.handle({"op": "drain"})
            assert service.monitor.warnings == 0
            network = service.bus.fabric.network
            # Host 2 hears groups a and b from different sequencing nodes;
            # cut the busier of the two for 120 ms of real time.
            inbound = [
                channel
                for (src, dst), channel in network.channels.items()
                if dst == ("host", 2) and src[0] == "seq"
            ]
            assert len(inbound) >= 2
            max(inbound, key=lambda channel: channel.bytes_sent).fail(12_000.0)
            for index in range(10):
                await _publish(service, 3, "ab"[index % 2])
            await service.handle({"op": "drain"})
            return service.monitor
        finally:
            service.bus.close()

    monitor = asyncio.run(scenario())
    stalls = [alert for alert in monitor.alerts if alert.rule == "LM303"]
    assert stalls and monitor.warnings == len(stalls)
    assert monitor.violations == 0
    assert all(alert.anchor == "host 2" for alert in stalls)
    assert stalls[0].cause == "outage" and stalls[0].evidence["outage"] > 0


def test_monitors_reply_fits_a_default_limit_client_after_many_alerts():
    async def scenario():
        service = await _ring_service()
        # Make every hold-back a stall: > 1 000 alerts from a short flood.
        service.monitor.stall_threshold_ms = 1e-6
        await service.start()
        server = asyncio.ensure_future(service.serve_until_shutdown())
        reader, writer = await asyncio.open_connection("127.0.0.1", service.bound_port)
        try:
            topics = sorted(RING)
            for index in range(1500):
                topic = topics[index % len(topics)]
                await _publish(service, RING[topic][index % 4], topic)
            assert (await request(reader, writer, {"op": "drain"}))["ok"]
            reply = await request(reader, writer, {"op": "monitors"})
            metrics = await request(reader, writer, {"op": "metrics"})
            await request(reader, writer, {"op": "shutdown"})
        finally:
            writer.close()
            await asyncio.wait_for(server, timeout=10.0)
        return reply, metrics, service.monitor

    reply, metrics, monitor = asyncio.run(scenario())
    assert reply["ok"] and monitor.warnings > 1000
    # The ``metrics`` snapshot is cut the same way (it used to carry every
    # retained alert and overflow the client's line limit like ``monitors``).
    snapshot = metrics["snapshot"]
    assert metrics["ok"] and snapshot["alerts"] == reply["alerts"]
    assert snapshot["warnings"] == monitor.warnings
    assert snapshot["violations"] == 0
    assert reply["warnings"] == monitor.warnings
    assert reply["violations"] == monitor.violations == 0
    assert reply["alerts_total"] == monitor.warnings + monitor.violations
    assert reply["alerts_dropped"] == monitor.alerts_dropped
    assert len(reply["alerts"]) == MONITORS_REPLY_ALERTS
    newest = [alert.to_dict() for alert in monitor.alerts[-MONITORS_REPLY_ALERTS:]]
    assert reply["alerts"] == newest


def test_counters_keep_counting_past_the_alert_cap():
    from repro.obs.live import LiveMonitor
    from repro.runtime.trace import TraceRecord

    monitor = LiveMonitor(retain_audit=False, max_alerts=2, stall_threshold_ms=1.0)
    monitor.adopt_membership({0: frozenset({0, 1})})
    for msg in range(5):
        monitor.observe(TraceRecord(0.0, "buffer", {"msg": msg, "host": 0, "group": 0}))
    monitor.observe(TraceRecord(5.0, "publish", {"msg": 9, "group": 0, "sender": 0}))
    assert len(monitor.alerts) == 2 and monitor.alerts_dropped == 3
    assert (monitor.warnings, monitor.violations) == (5, 0)
    # A snapshot reports the monitor's counts, not a recount of what it
    # could carry — through the wire form as well.
    snapshot = TelemetrySnapshot.from_dict(
        json.loads(json.dumps(TelemetrySnapshot.from_monitor(monitor).to_dict()))
    )
    assert (snapshot.warnings, snapshot.violations) == (5, 0)
    assert len(snapshot.alerts) == 2 and snapshot.alerts_dropped == 3


def test_health_counts_the_deliveries_of_retired_epochs():
    async def scenario():
        service = OrderingService(n_hosts=8, seed=0, time_scale=TIME_SCALE)
        totals = []

        async def step(req):
            assert (await service.handle(req))["ok"]
            health = await service.handle({"op": "health"})
            totals.append(health.get("delivered_total", 0))  # absent before a fabric

        try:
            for host in (0, 1, 2):
                await step({"op": "subscribe", "host": host, "topic": "t"})
            for _ in range(5):
                await step({"op": "publish", "sender": 0, "topic": "t"})
            await step({"op": "drain"})
            await step({"op": "subscribe", "host": 3, "topic": "t"})
            await step({"op": "publish", "sender": 0, "topic": "t"})  # epoch switch
            await step({"op": "drain"})
            logged = sum(len(service.bus.delivered(h)) for h in range(8))
            return totals, logged, service.bus.fabric.epoch
        finally:
            service.bus.close()

    totals, logged, epoch = asyncio.run(scenario())
    assert epoch == 1
    assert totals[-1] == logged == 3 * 5 + 4
    assert totals == sorted(totals)
