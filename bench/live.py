"""The two live workloads: TCP verb -> JSON -> asyncio fabric -> delivery.

``OrderingService`` and its one client connection share an event loop
(one process, one thread).  Deliveries are observed through the public
``OrderedPubSub.on_deliver`` hook, keyed by payload, so a publish is
timed to its delivery at the *last* member of its group.

Injected delay: the service runs its default small topology at
``time_scale=1e-5`` real seconds per virtual millisecond, so the
simulated path delay (virtual p50 about 55 ms) is about 0.55 ms of real
time; the rest of a measured latency is event-loop and timer cost.
"""

import asyncio
import json
import random
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.service import OrderingService, request
from repro.workloads.zipf import zipf_membership

from spans import Tracer
from workloads import (
    SETUP_REPEATS,
    TESTBED_SEED,
    Completion,
    Draws,
    Outcome,
    Round,
    Spec,
    audit_deliveries,
    peak_rss_mb,
    percentile,
    planned_rounds,
    summarize_rounds,
    trace_round,
)

LIVE_HOSTS, LIVE_GROUPS = 32, 8
TIME_SCALE = 1e-5
#: open-loop offered rate of live_paced, about a quarter of saturation
PACED_RATE = 400.0
#: closed-loop window of live_flood
FLOOD_IN_FLIGHT = 32
#: the monitors reply lists every hold-back warning; asyncio's 64 KiB
#: default line limit is too small for it
CLIENT_LIMIT = 1 << 26
HEALTH_PROBES = 2000
TIMER_PROBES = 200
#: virtual ms each probe timer is set for (1 ms of real time)
TIMER_PROBE_DELAY = 100.0

LIVE_SPECS = (
    Spec(
        "live_paced",
        "open loop; user-visible latency from TCP verb to delivery at the last "
        "member, at a quarter of saturation so no backlog grows",
        "open loop, 400 publishes/s on one connection, timed from the due time",
        round_msgs=400, rounds=8,
    ),
    Spec(
        "live_flood",
        "closed loop; sustainable throughput of service + AsyncioNetwork: a change "
        "that helps the sim Network but hurts the live one shows here",
        "closed loop, 32 messages in flight on one connection, then a drain verb",
        round_msgs=1000, rounds=13,
    ),
)


class LiveBed:
    """A started service, one client connection, subscribed and warmed."""

    def __init__(self) -> None:
        self.service = OrderingService(
            n_hosts=LIVE_HOSTS, seed=TESTBED_SEED, time_scale=TIME_SCALE
        )
        self.members: Dict[int, List[int]] = {}
        self.sent_at: List[float] = []
        self.acked_at: List[float] = []

    async def start(self) -> "LiveBed":
        await self.service.start()
        self._server = asyncio.ensure_future(self.service.serve_until_shutdown())
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.service.bound_port, limit=CLIENT_LIMIT
        )
        snapshot = zipf_membership(
            LIVE_HOSTS, LIVE_GROUPS, random.Random(TESTBED_SEED)
        )
        for group, hosts in sorted(snapshot.items()):
            self.members[group] = sorted(hosts)
            for host in self.members[group]:
                await self.call(op="subscribe", host=host, topic=f"g{group}")
        # One message per (member, group), each run to quiescence over
        # the wire: builds the fabric, creates every channel once.
        for group, hosts in self.members.items():
            for host in hosts:
                await self.call(op="publish", sender=host, topic=f"g{group}")
                await self.call(op="drain")
        return self

    async def call(self, **req: Any) -> Dict[str, Any]:
        """One verb, awaited; a refused verb aborts the run."""
        resp = await request(self.reader, self.writer, req)
        if not resp.get("ok"):
            raise RuntimeError(f"service refused {req}: {resp}")
        return resp

    def send_publish(self, sender: int, group: int, payload: int) -> None:
        """Write one publish verb without waiting for its reply."""
        verb = {"op": "publish", "sender": sender, "topic": f"g{group}", "payload": payload}
        self.sent_at.append(perf_counter())
        self.writer.write(json.dumps(verb).encode() + b"\n")

    async def read_acks(self, count: int) -> None:
        """Consume ``count`` publish replies in order."""
        for _ in range(count):
            resp = json.loads(await self.reader.readline())
            self.acked_at.append(perf_counter())
            if not resp.get("ok"):
                raise RuntimeError(f"publish refused: {resp}")

    @property
    def events(self) -> int:
        return int(self.service.bus.fabric.sim.events_executed)

    async def drain(self, outcome: Outcome) -> None:
        """The drain verb that ends a timed region: wait for quiescence."""
        began = perf_counter()
        await self.call(op="drain")
        outcome.detail["drain_ms"] = (perf_counter() - began) * 1e3

    async def stop(self) -> None:
        await self.call(op="shutdown")
        self.writer.close()
        await self._server


async def _paced(
    bed: LiveBed, draws: Draws, completion: Completion, spec: Spec,
    seconds: float, round_msgs: int, tracer: Optional[Tracer], outcome: Outcome,
) -> List[Round]:
    total = planned_rounds(spec, seconds) * round_msgs
    traced: List[bool] = []
    acks = asyncio.ensure_future(bed.read_acks(total))
    late: List[float] = []
    marks = [bed.events]
    start = perf_counter() + 0.05
    for index in range(total):
        if index % round_msgs == 0:
            traced.append(trace_round(tracer, len(traced)))
        due = start + index / PACED_RATE
        # Sleep to the due time; when already late still yield once, so
        # a backlog can never starve the service sharing this loop.
        await asyncio.sleep(max(0.0, due - perf_counter()))
        late.append(perf_counter() - due)
        group, sender = draws.next(bed.members)
        bed.send_publish(
            sender, group, completion.expect(due, len(bed.members[group]))
        )
        if (index + 1) % round_msgs == 0:
            marks.append(bed.events)
    await acks
    await bed.drain(outcome)
    outcome.detail["gen_late_ms_p99"] = percentile(sorted(late), 0.99) * 1e3
    rounds = []
    for number in range(total // round_msgs):
        first, last = number * round_msgs, (number + 1) * round_msgs
        rounds.append(
            Round(
                round_msgs,
                max(completion.done[first:last]) - completion.due[first],
                traced=traced[number],
                events=marks[number + 1] - marks[number],
            )
        )
    return rounds


async def _flood(
    bed: LiveBed, draws: Draws, completion: Completion, spec: Spec,
    seconds: float, round_msgs: int, tracer: Optional[Tracer], outcome: Outcome,
) -> List[Round]:
    slots = asyncio.Semaphore(FLOOD_IN_FLIGHT)
    completion.on_complete = lambda index: slots.release()
    rounds: List[Round] = []

    async def one_round() -> None:
        acks = asyncio.ensure_future(bed.read_acks(round_msgs))
        traced = trace_round(tracer, len(rounds))
        before = bed.events
        began = perf_counter()
        for _ in range(round_msgs):
            await slots.acquire()
            group, sender = draws.next(bed.members)
            bed.send_publish(
                sender, group, completion.expect(perf_counter(), len(bed.members[group]))
            )
        rounds.append(
            Round(round_msgs, perf_counter() - began, traced, bed.events - before)
        )
        await acks

    for _ in range(planned_rounds(spec, seconds)):
        await one_round()
    await bed.drain(outcome)
    return rounds


async def _timer_lag(bed: LiveBed, probes: int) -> float:
    """Median real ms a probe timer fires late on the public scheduler."""
    scheduler = bed.service.bus.fabric.sim
    expected = scheduler.clock.to_real_seconds(TIMER_PROBE_DELAY)
    loop = asyncio.get_running_loop()
    lags = []
    for _ in range(probes):
        fired: "asyncio.Future[float]" = loop.create_future()
        set_at = perf_counter()
        scheduler.schedule(
            TIMER_PROBE_DELAY, lambda f=fired: f.set_result(perf_counter())
        )
        lags.append((await fired) - set_at - expected)
    return statistics.median(lags) * 1e3


async def _health_rtt(bed: LiveBed, probes: int) -> float:
    """Median us of a no-op verb round trip: the TCP + JSON floor."""
    trips = []
    for _ in range(probes):
        began = perf_counter()
        await bed.call(op="health")
        trips.append(perf_counter() - began)
    return statistics.median(trips) * 1e6


async def _run(
    spec: Spec, seed: int, seconds: float, tracer: Optional[Tracer], scale: float
) -> Tuple[Outcome, LiveBed, List[Round]]:
    outcome = Outcome(spec)
    started = perf_counter()
    bed = await LiveBed().start()
    setups = [perf_counter() - started]

    completion = Completion()
    bed.service.bus.on_deliver = completion.hook
    draws = Draws(seed)
    round_msgs = max(2, int(spec.round_msgs * scale))
    workload = _paced if spec.name == "live_paced" else _flood
    rounds = await workload(
        bed, draws, completion, spec, seconds, round_msgs, tracer, outcome
    )
    if tracer is not None:
        tracer.uninstall()
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()

    check = await request(bed.reader, bed.writer, {"op": "check"})
    if not check.get("ok"):
        outcome.problems.append(f"check verb failed: {check.get('findings')}")
    monitors = await bed.call(op="monitors")
    if monitors["violations"]:
        outcome.problems.append(f"{monitors['violations']} live-monitor violations")
    audit_deliveries([bed.service.bus.fabric], outcome)
    summarize_rounds(
        outcome, rounds, completion, fixed_rate=spec.name == "live_paced"
    )

    if tracer is not None:
        acks = sorted(a - s for s, a in zip(bed.sent_at, bed.acked_at))
        outcome.layers.update(
            {
                "runtime.asyncio.timer_lag_ms_p50": await _timer_lag(
                    bed, max(10, int(TIMER_PROBES * scale))
                ),
                "runtime.service.health_rtt_us_p50": await _health_rtt(
                    bed, max(10, int(HEALTH_PROBES * scale))
                ),
                "runtime.service.publish_ack_us_p50": percentile(acks, 0.5) * 1e6,
                "runtime.service.drain_ms": outcome.detail["drain_ms"],
                "runtime.service.requests": float(bed.service.requests_served),
                "obs.monitor_warnings": float(monitors["warnings"]),
            }
        )
    await bed.stop()
    if tracer is None:
        while len(setups) < SETUP_REPEATS:
            started = perf_counter()
            again = await LiveBed().start()
            setups.append(perf_counter() - started)
            await again.stop()
        outcome.end_to_end["setup_s"] = statistics.median(setups)
    return outcome, bed, rounds


def run_live(
    spec: Spec,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    scale: float = 1.0,
) -> Tuple[Outcome, LiveBed, List[Round]]:
    """Serve, measure for ``seconds``, drain, then check every delivery."""
    return asyncio.run(_run(spec, seed, seconds, tracer, scale))
