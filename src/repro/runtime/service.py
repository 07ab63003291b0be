"""A minimal TCP service façade over the live asyncio runtime.

:class:`OrderingService` hosts an :class:`~repro.core.api.OrderedPubSub`
on the ``"asyncio"`` backend and exposes it over newline-delimited JSON on
a TCP socket — the smallest façade that makes the live runtime a *system*
rather than a library: publish/subscribe/join/leave, a drain barrier, a
delivery log, a health endpoint, and a live C1/C2 graph verification
(:func:`repro.check.verify_graph` over the running fabric's sequencing
graph).

Wire protocol: one JSON object per line in each direction.

    -> {"op": "subscribe", "host": 0, "topic": "room/blue"}
    <- {"ok": true, "group": 0}
    -> {"op": "publish", "sender": 0, "topic": "room/blue", "payload": "hi"}
    <- {"ok": true, "msg_id": 0}
    -> {"op": "drain"}
    <- {"ok": true, "executed": 42, "now": 103.2}
    -> {"op": "delivered", "host": 1}
    <- {"ok": true, "records": [{"msg_id": 0, "payload": "hi", ...}]}
    -> {"op": "health"}
    <- {"ok": true, "status": "up", "backend": "asyncio", ...}
    -> {"op": "metrics"}
    <- {"ok": true, "snapshot": {"format": "repro-telemetry/1", ...}}
    -> {"op": "metrics", "format": "prometheus"}
    <- {"ok": true, "text": "# HELP repro_phase_latency_ms ..."}
    -> {"op": "monitors"}
    <- {"ok": true, "alerts": [...newest 100...], "alerts_total": 0,
        "alerts_dropped": 0, "violations": 0, "warnings": 0}

The ``metrics`` and ``monitors`` verbs are served by a
:class:`repro.obs.live.LiveMonitor` subscribed to the live fabric's trace
(re-attached across epoch switches via the bus's fabric-observer hook):
streaming RT300-class invariant monitors plus per-phase latency
percentiles.  ``repro top`` renders these snapshots as a refreshing
operator view; see ``docs/OBSERVABILITY.md``.

Errors come back as ``{"ok": false, "error": "..."}`` and never kill the
connection.  ``repro serve`` is the CLI entry point; ``repro serve
--self-test`` boots the service on an ephemeral port, runs a scripted
client against it (publish → ordered delivery round trip, health check,
graph verification, clean shutdown), and exits non-zero on any failure —
the CI asyncio smoke job runs exactly that under a timeout.

This module deliberately lives outside ``repro.runtime``'s eager exports:
it imports :mod:`repro.core.api`, which imports the runtime package, so
re-exporting it from ``repro.runtime.__init__`` would create a cycle.
"""

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import OrderedPubSub, OrderingViolation
from repro.obs.live import (
    STALL_THRESHOLD_MS,
    WIRE_ALERTS,
    LiveMonitor,
    TelemetrySnapshot,
)
from repro.obs.registry import MetricsRegistry

__all__ = ["OrderingService", "request", "run_self_test", "serve"]

#: safety ceiling (real seconds) on one drain barrier
DRAIN_WALL_LIMIT = 30.0

#: real seconds a message may sit in hold-back before LM303 warns, however
#: far ``time_scale`` compresses the monitor's virtual-ms default: below
#: this, event-loop scheduling alone reads as a stall
STALL_REAL_FLOOR_S = 0.05

#: alerts one ``monitors`` reply carries (the newest) — the cap a
#: ``metrics`` snapshot applies too
MONITORS_REPLY_ALERTS = WIRE_ALERTS


class OrderingService:
    """The live pub/sub system behind a newline-delimited-JSON TCP API.

    Parameters
    ----------
    n_hosts:
        End hosts available to clients (addressed as ``0 .. n_hosts-1``).
    seed, loss_rate:
        Forwarded to :class:`~repro.core.api.OrderedPubSub`; a positive
        loss rate makes the live transport genuinely drop packets and the
        reliable link layer recover them.
    time_scale:
        Real seconds per virtual millisecond (default runs link delays
        ~100x faster than real time; see
        :class:`~repro.runtime.wallclock.LiveClock`).
    host, port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`bound_port` after :meth:`start`).
    """

    def __init__(
        self,
        n_hosts: int = 8,
        seed: int = 0,
        loss_rate: float = 0.0,
        time_scale: float = 1e-5,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.bus = OrderedPubSub(
            n_hosts=n_hosts,
            seed=seed,
            loss_rate=loss_rate,
            backend="asyncio",
            time_scale=time_scale,
            enforce_causal_sends=False,
        )
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self.requests_served = 0
        # Live telemetry plane: streaming invariant monitors + per-phase
        # latency percentiles, following the bus across epoch switches.
        # retain_audit=False keeps memory bounded for a long-lived service
        # (the windowed monitors and histograms are all that accumulate).
        self.registry = MetricsRegistry()
        self.monitor = LiveMonitor(
            node=f"service:{host}",
            stall_threshold_ms=max(
                STALL_THRESHOLD_MS, STALL_REAL_FLOOR_S / time_scale
            ),
            registry=self.registry,
            retain_audit=False,
        )
        self.bus.add_fabric_observer(self.monitor.attach)

    # -- lifecycle ---------------------------------------------------------

    @property
    def bound_port(self) -> int:
        """The actually-bound TCP port (after :meth:`start`)."""
        assert self._server is not None, "service not started"
        sockets = self._server.sockets
        assert sockets, "server has no listening socket"
        return int(sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind the listening socket (the event loop must be running)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def serve_until_shutdown(self) -> None:
        """Serve requests until a ``shutdown`` op arrives, then close."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._shutdown.wait()
        self.bus.close()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                    resp = await self.handle(req)
                except Exception as exc:  # noqa: BLE001 - reported to client
                    resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                writer.write(json.dumps(resp).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    # -- operations --------------------------------------------------------

    async def handle(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request object; returns the response object."""
        self.requests_served += 1
        op = req.get("op")
        if op in ("subscribe", "join"):
            group = self.bus.subscribe(int(req["host"]), str(req["topic"]))
            return {"ok": True, "group": group}
        if op in ("unsubscribe", "leave"):
            self.bus.unsubscribe(int(req["host"]), str(req["topic"]))
            return {"ok": True}
        if op == "publish":
            return await self._publish(req)
        if op == "drain":
            return await self._drain(req)
        if op == "delivered":
            return self._delivered(req)
        if op == "health":
            return self._health()
        if op == "check":
            return self._check()
        if op == "metrics":
            return self._metrics(req)
        if op == "monitors":
            return self._monitors()
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _publish(self, req: Dict[str, Any]) -> Dict[str, Any]:
        # A membership change since the last publish forces an epoch
        # switch, which requires quiescence — drain the live runtime
        # first so reconfigure() sees no in-flight work.
        if self.bus._dirty and self.bus._fabric is not None:
            await self.bus._fabric.runtime.wait_quiescent(timeout=DRAIN_WALL_LIMIT)
        destination: Any = req.get("topic", req.get("group"))
        if destination is None:
            return {"ok": False, "error": "publish needs 'topic' or 'group'"}
        try:
            msg_id = self.bus.publish(
                int(req["sender"]), destination, req.get("payload")
            )
        except OrderingViolation as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "msg_id": msg_id}

    async def _drain(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Barrier: wait for the live runtime to go quiescent."""
        if self.bus._fabric is None:
            return {"ok": True, "executed": 0, "now": 0.0}
        runtime = self.bus._fabric.runtime
        executed = await runtime.wait_quiescent(
            until=req.get("until"),
            timeout=float(req.get("timeout", DRAIN_WALL_LIMIT)),
        )
        return {"ok": True, "executed": executed, "now": self.bus.now}

    def _delivered(self, req: Dict[str, Any]) -> Dict[str, Any]:
        records = [
            {
                "msg_id": r.msg_id,
                "payload": r.payload,
                "group": r.stamp.group,
                "sender": r.sender,
                "time": r.time,
            }
            for r in self.bus.delivered(int(req["host"]))
        ]
        return {"ok": True, "records": records}

    def _health(self) -> Dict[str, Any]:
        fabric = self.bus._fabric
        body: Dict[str, Any] = {
            "ok": True,
            "status": "up",
            "backend": self.bus.backend,
            "hosts": len(self.bus.hosts),
            "groups": len(self.bus.membership.snapshot()),
            "requests_served": self.requests_served,
        }
        if fabric is not None:
            retired = sum(
                len(log)
                for logs in self.bus._delivered_history.values()
                for log in logs
            )
            body.update(
                now=fabric.sim.now,
                pending=fabric.sim.pending,
                events_executed=fabric.sim.events_executed,
                delivered_total=retired
                + sum(len(p.delivered) for p in fabric.host_processes.values()),
                sequencing_nodes=len(fabric.node_processes),
            )
        return body

    def _metrics(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Telemetry snapshot — JSON by default, Prometheus text on request."""
        if req.get("format") == "prometheus":
            from repro.obs.exporters import registry_to_prometheus

            return {"ok": True, "text": registry_to_prometheus(self.registry)}
        snapshot = TelemetrySnapshot.from_monitor(self.monitor)
        return {"ok": True, "snapshot": snapshot.to_dict()}

    def _monitors(self) -> Dict[str, Any]:
        """The newest streaming-monitor alerts and the verdict counters."""
        monitor = self.monitor
        return {
            "ok": True,
            "alerts": [
                alert.to_dict()
                for alert in monitor.alerts[-MONITORS_REPLY_ALERTS:]
            ],
            "alerts_total": monitor.violations + monitor.warnings,
            "alerts_dropped": monitor.alerts_dropped,
            "violations": monitor.violations,
            "warnings": monitor.warnings,
        }

    def _check(self) -> Dict[str, Any]:
        """Re-prove C1/C2 (and channel consistency) over the live fabric.

        Goes through the fabric-level certificate export rather than the
        bare graph so the audit covers exactly what an exported
        certificate would: graph, placement, and the transport's
        live/retired channel state (GV206).
        """
        from repro.check import verify_certificate

        fabric = self.bus.fabric  # builds the fabric if nothing ran yet
        findings = verify_certificate(fabric.export_certificate())
        return {
            "ok": not findings,
            "findings": [
                {"code": f.code, "message": f.message} for f in findings
            ],
        }


# ---------------------------------------------------------------------------
# Client + CLI plumbing
# ---------------------------------------------------------------------------


async def request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    req: Dict[str, Any],
) -> Dict[str, Any]:
    """Send one request object over an open connection; await the response."""
    writer.write(json.dumps(req).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("service closed the connection")
    resp = json.loads(line)
    assert isinstance(resp, dict)
    return resp


async def _self_test_client(port: int) -> List[str]:
    """Scripted round trip against a running service; returns failures."""
    failures: List[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        # Two topics with an overlapping subscriber set: host 1 sees both
        # groups, so cross-group ordering is actually exercised.
        for host, topic in [
            (0, "room/blue"),
            (1, "room/blue"),
            (1, "room/red"),
            (2, "room/red"),
        ]:
            resp = await request(
                reader, writer, {"op": "join", "host": host, "topic": topic}
            )
            expect(resp.get("ok") is True, f"join {host}/{topic}: {resp}")

        published = []
        for i in range(6):
            topic = "room/blue" if i % 2 == 0 else "room/red"
            sender = 0 if i % 2 == 0 else 2
            resp = await request(
                reader,
                writer,
                {
                    "op": "publish",
                    "sender": sender,
                    "topic": topic,
                    "payload": f"m{i}",
                },
            )
            expect(resp.get("ok") is True, f"publish {i}: {resp}")
            published.append(resp.get("msg_id"))

        resp = await request(reader, writer, {"op": "drain"})
        expect(resp.get("ok") is True, f"drain: {resp}")

        # Every subscriber got every message of its groups, in a total
        # order consistent across overlapping subscribers.
        logs = {}
        for host in (0, 1, 2):
            resp = await request(
                reader, writer, {"op": "delivered", "host": host}
            )
            expect(resp.get("ok") is True, f"delivered {host}: {resp}")
            logs[host] = [r["msg_id"] for r in resp.get("records", [])]
        expect(len(logs[1]) == 6, f"host 1 should see all 6, got {logs[1]}")
        expect(len(logs[0]) == 3, f"host 0 should see 3, got {logs[0]}")
        expect(len(logs[2]) == 3, f"host 2 should see 3, got {logs[2]}")
        for other in (0, 2):
            common = [m for m in logs[1] if m in set(logs[other])]
            expect(
                common == logs[other],
                f"order disagreement host 1 vs {other}: {logs[1]} vs {logs[other]}",
            )

        resp = await request(reader, writer, {"op": "health"})
        expect(
            resp.get("ok") is True and resp.get("status") == "up",
            f"health: {resp}",
        )
        expect(
            resp.get("pending") == 0,
            f"health should show quiescence after drain: {resp}",
        )

        # Live C1/C2 verification of the running sequencing graph.
        resp = await request(reader, writer, {"op": "check"})
        expect(
            resp.get("ok") is True and resp.get("findings") == [],
            f"graph check: {resp}",
        )

        # Live telemetry: deliveries counted, percentiles populated, and a
        # clean run must raise zero streaming-monitor violations.
        resp = await request(reader, writer, {"op": "metrics"})
        expect(resp.get("ok") is True, f"metrics: {resp}")
        snap = resp.get("snapshot", {})
        expect(
            snap.get("delivered") == 12,
            f"metrics should count 12 deliveries: {snap.get('delivered')}",
        )
        expect(
            snap.get("violations") == 0,
            f"clean run raised monitor violations: {snap.get('alerts')}",
        )
        delivery = snap.get("phases", {}).get("delivery", {})
        expect(
            delivery.get("count") == 12,
            f"delivery latency histogram should have 12 samples: {delivery}",
        )
        resp = await request(
            reader, writer, {"op": "metrics", "format": "prometheus"}
        )
        expect(
            "repro_phase_latency_ms_bucket" in resp.get("text", ""),
            "prometheus scrape is missing the phase-latency histogram",
        )
        resp = await request(reader, writer, {"op": "monitors"})
        expect(
            resp.get("ok") is True and resp.get("violations") == 0,
            f"monitors: {resp}",
        )

        resp = await request(reader, writer, {"op": "shutdown"})
        expect(resp.get("ok") is True, f"shutdown: {resp}")
    finally:
        writer.close()
    return failures


async def run_self_test(
    n_hosts: int = 8, seed: int = 0, loss_rate: float = 0.0
) -> List[str]:
    """Boot a service on an ephemeral port and run the scripted client.

    Returns a list of failure descriptions (empty = pass).
    """
    service = OrderingService(n_hosts=n_hosts, seed=seed, loss_rate=loss_rate)
    await service.start()
    server_task = asyncio.ensure_future(service.serve_until_shutdown())
    try:
        failures = await asyncio.wait_for(
            _self_test_client(service.bound_port), timeout=60.0
        )
    finally:
        service._shutdown.set()
        await asyncio.wait_for(server_task, timeout=10.0)
    return failures


async def serve(
    n_hosts: int,
    seed: int,
    loss_rate: float,
    time_scale: float,
    host: str,
    port: int,
) -> Tuple[str, int]:
    """Run the service until a client sends ``shutdown``."""
    service = OrderingService(
        n_hosts=n_hosts,
        seed=seed,
        loss_rate=loss_rate,
        time_scale=time_scale,
        host=host,
        port=port,
    )
    await service.start()
    bound = (host, service.bound_port)
    print(f"repro serve: listening on {bound[0]}:{bound[1]} "
          f"({n_hosts} hosts, loss_rate={loss_rate})", flush=True)
    await service.serve_until_shutdown()
    return bound
