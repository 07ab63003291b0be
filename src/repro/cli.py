"""``repro`` command-line interface.

Subcommands::

    repro demo [--backend asyncio]   # tiny end-to-end ordering demo
    repro serve [--port 7400]        # live asyncio TCP service façade
    repro serve --self-test          # scripted live round trip + C1/C2
    repro figures --figures 3 5      # reproduce paper figures (see runner)
    repro analyze --hosts 64 --groups 16 [--dot out.dot]
                                     # build a Zipf workload and report the
                                     # sequencing graph / placement
    repro workload record out.json --hosts 32 --groups 8 --events 50
    repro workload replay out.json   # replay a saved workload, verify order
    repro trace run --hosts 32 --groups 8 --out run.jsonl \
                    --chrome run.trace.json --metrics metrics.prom
                                     # instrumented run: per-group phases,
                                     # Perfetto trace, Prometheus metrics
    repro check --format json        # static analysis: simlint determinism
                                     # rules + C1/C2 graph verification
    repro check --certificate g.json # audit an exported graph certificate
    repro chaos --runs 3 --seed 0    # seeded fault-injection campaigns with
                                     # failover; nonzero exit on violation
    repro chaos --churn 50 --switches 5
                                     # the same campaign under sustained
                                     # join/leave churn: online epoch-fenced
                                     # switches, audited by the RT32x
                                     # cross-epoch invariants
    repro explain --stalls           # ordering forensics on a fixed-seed
                                     # chaos run (or --trace run.jsonl):
                                     # per-message journeys, blocking
                                     # (atom, seq) pairs, stall causes
    repro explain --message 12 --dot waits.dot
                                     # one message's journey + the
                                     # who-waited-on-whom graph
    repro chaos --live-monitor       # attach the streaming invariant
                                     # monitors; the report gains a
                                     # live_monitor block whose findings
                                     # must agree with the post-hoc audit
    repro top --replay run.jsonl     # operator view: replay a JSONL trace
                                     # through the streaming monitors
    repro top --connect PORT         # ... or poll a running `repro serve`
                                     # instance's metrics verb live

Also runnable as ``python -m repro.cli``.
"""

import argparse
import itertools
import json
import random
import sys
from typing import List, Optional

from repro.analysis import analyze, placement_to_dot, sequencing_graph_to_dot
from repro.core.api import OrderedPubSub
from repro.experiments import runner as figure_runner
from repro.experiments.common import ExperimentEnv
from repro.workloads.replay import WorkloadTrace
from repro.workloads.scenarios import PublishEvent
from repro.workloads.zipf import zipf_membership


def _cmd_demo(args: argparse.Namespace) -> int:
    backend = getattr(args, "backend", "sim")
    kwargs = {}
    if backend == "asyncio":
        # Virtual milliseconds shrink to microseconds of wall time so the
        # demo finishes promptly while still exercising live timers.
        kwargs = {"backend": "asyncio", "time_scale": 1e-6}
    bus = OrderedPubSub(n_hosts=8, seed=args.seed, **kwargs)
    for user in (0, 1, 3):
        bus.subscribe(user, "blue")
    for user in (1, 2, 3):
        bus.subscribe(user, "red")
    bus.publish(0, "blue", "m0: hello blue")
    bus.publish(2, "red", "m1: hello red")
    bus.publish(1, "blue", "m2: hi from the overlap")
    bus.run()
    for user in range(4):
        payloads = bus.delivered_payloads(user)
        print(f"host {user}: {payloads}")
    a = [r.msg_id for r in bus.delivered(1)]
    b = [r.msg_id for r in bus.delivered(3)]
    common = set(a) & set(b)
    agreed = [m for m in a if m in common] == [m for m in b if m in common]
    print(f"backend: {backend}")
    print(f"overlap members agree on order: {agreed}")
    bus.close()
    return 0 if agreed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime import service

    if args.self_test:
        failures = asyncio.run(
            service.run_self_test(
                n_hosts=args.hosts, seed=args.seed, loss_rate=args.loss_rate
            )
        )
        for failure in failures:
            print(f"FAIL: {failure}")
        print("serve self-test:", "FAIL" if failures else "PASS")
        return 1 if failures else 0
    try:
        asyncio.run(
            service.serve(
                n_hosts=args.hosts,
                seed=args.seed,
                loss_rate=args.loss_rate,
                time_scale=args.time_scale,
                host=args.host,
                port=args.port,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    return figure_runner.main(args.rest)


def _cmd_analyze(args: argparse.Namespace) -> int:
    env = ExperimentEnv(n_hosts=args.hosts, seed=args.seed)
    snapshot = zipf_membership(args.hosts, args.groups, rng=random.Random(args.seed))
    membership = env.membership_from(snapshot)
    graph = env.build_graph(snapshot, seed=args.seed)
    placement = env.build_placement(graph, seed=args.seed)
    report = analyze(graph, placement, membership)
    print(report)
    print()
    print("per-group paths (group: members own/path/pass-through hops):")
    for profile in report.group_profiles:
        print(
            f"  g{profile.group}: {profile.members} members, "
            f"{profile.own_atoms}/{profile.path_atoms}/"
            f"{profile.pass_through_atoms}, hops={profile.machine_hops}"
        )
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(placement_to_dot(graph, placement))
        print(f"\nDOT written to {args.dot}")
    if args.graph_dot:
        with open(args.graph_dot, "w") as handle:
            handle.write(sequencing_graph_to_dot(graph))
        print(f"graph DOT written to {args.graph_dot}")
    if args.export_certificate:
        with open(args.export_certificate, "w") as handle:
            json.dump(graph.export_certificate(placement=placement), handle, indent=2)
        print(f"graph certificate written to {args.export_certificate}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.runner import run_check

    return run_check(
        paths=args.paths or None,
        certificates=args.certificate,
        lint=not args.no_lint,
        graphs=not args.no_graph,
        select=args.select or None,
        fmt=args.format,
        explore=args.explore,
        async_lint=args.async_lint,
    )


def _parse_crash_spec(spec: str) -> tuple:
    """Parse a ``NODE@AT`` or ``NODE@AT:DURATION`` crash spec."""
    try:
        node_part, _, when = spec.partition("@")
        at_part, _, duration_part = when.partition(":")
        node_id = int(node_part)
        at = float(at_part)
        duration = float(duration_part) if duration_part else None
    except ValueError:
        raise SystemExit(
            f"malformed --crash spec {spec!r}; expected NODE@AT[:DURATION]"
        )
    return (node_id, at, duration)


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.check.explore import (
        ExploreConfig,
        ScheduleDivergence,
        counterexample_document,
        explore,
        explore_report,
        minimize_counterexample,
        render_counterexample_trace,
        replay_schedule,
    )

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        # Accept either a bare counterexample document or a full explore
        # report (--out) with the counterexample nested inside it.
        if "schedule" not in document:
            nested = document.get("counterexample")
            if not nested:
                print(
                    f"{args.replay}: no counterexample schedule to replay",
                    file=sys.stderr,
                )
                return 2
            document = nested
        config = ExploreConfig.from_dict(document["config"])
        try:
            fabric, findings = replay_schedule(config, document["schedule"])
        except ScheduleDivergence as exc:
            print(f"replay diverged: {exc}", file=sys.stderr)
            return 2
        for finding in findings:
            print(f"{finding.anchor}: {finding.code} {finding.message}")
        trace_text = render_counterexample_trace(fabric, findings)
        if trace_text:
            print(trace_text)
        print(
            f"replay: {len(document['schedule'])} step(s), "
            f"{len(findings)} violation(s)"
        )
        return 1 if findings else 0

    config = ExploreConfig(
        groups=args.groups,
        hosts=args.hosts,
        messages=args.messages,
        seed=args.seed,
        loss_rate=args.loss,
        crashes=tuple(_parse_crash_spec(spec) for spec in args.crash),
        mutate=args.mutate,
        max_schedules=args.max_schedules,
        max_depth=args.max_depth,
    )
    result = explore(config)
    counterexample = None
    if result.counterexample_schedule is not None:
        minimal_config, minimal = minimize_counterexample(config, result)
        assert minimal.counterexample_schedule is not None
        counterexample = counterexample_document(
            minimal_config,
            minimal.counterexample_schedule,
            minimal.violations,
        )
        fabric, findings = replay_schedule(
            minimal_config, minimal.counterexample_schedule
        )
        counterexample["journeys"] = render_counterexample_trace(
            fabric, findings
        ).splitlines()
    if args.format == "json":
        rendered = explore_report(result, counterexample)
    else:
        stats = result.stats()
        lines = [
            f"explore: {config.label()}",
            f"  schedules {stats['schedules']} "
            f"(terminal {stats['terminal_states']}, "
            f"sleep-blocked {stats['sleep_blocked']}, "
            f"depth-truncated {stats['depth_truncated']})",
            f"  transitions {stats['transitions']}, "
            f"exhausted {stats['exhausted']}",
        ]
        for finding in result.violations:
            lines.append(
                f"  {finding.anchor}: {finding.code} {finding.message}"
            )
        if counterexample is not None:
            lines.append(
                f"  minimal counterexample: "
                f"{len(counterexample['schedule'])} step(s)"
            )
            lines.extend(
                "    " + line for line in counterexample["journeys"]
            )
        rendered = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"explore report written to {args.out}")
    else:
        print(rendered)
    return 1 if result.violations else 0


def _chaos_text(report: dict) -> List[str]:
    """A one-epoch campaign report: failovers, retransmissions, drops."""
    latencies = [
        f"{f['detection_latency_ms']:.1f}ms"
        for f in report["failovers"]
        if f["detection_latency_ms"] is not None
    ]
    by_cause = ", ".join(
        f"{cause}={count}"
        for cause, count in report["retransmissions"]["by_cause"].items()
    )
    lines = [
        f"seed {report['config']['seed']}: "
        f"{'ok' if report['ok'] else 'FAIL'} — "
        f"published {report['published']}, "
        f"delivered {report['delivered']}, "
        f"failovers {len(report['failovers'])} "
        f"(detection {', '.join(latencies) or 'n/a'}), "
        f"retransmissions {report['retransmissions']['total']} "
        f"({by_cause}), drops loss={report['drops']['loss']} "
        f"outage={report['drops']['outage']}, "
        f"link failures {report['link_failures']}"
    ]
    lines.extend(f"  {f['code']}: {f['message']}" for f in report["findings"])
    live = report.get("live_monitor")
    if live is not None:
        agree = "agrees" if live["agrees_with_audit"] else "DISAGREES"
        lines.append(
            f"  live monitor: {len(live['alerts'])} alert(s) "
            f"({live['violations']} violation(s), "
            f"{live['warnings']} warning(s)) — "
            f"{agree} with the post-hoc audit"
        )
    return lines


def _churn_text(report: dict) -> List[str]:
    """A churn campaign report: epochs, switch drains, delivery digest."""
    drains = ", ".join(
        str(e["switch"]["drain_events"]) for e in report["epochs"] if e["switch"]
    )
    lines = [
        f"seed {report['config']['seed']}: "
        f"{'ok' if report['ok'] else 'FAIL'} — "
        f"{len(report['epochs'])} epoch(s), "
        f"churn {report['churn_applied']}, "
        f"published {report['published']}, "
        f"delivered {report['delivered']}, "
        f"failovers {report['failovers']}, "
        f"drain events [{drains}], "
        f"digest {report['delivery_digest'][:12]}"
    ]
    crash = report["mid_switch_crash"]
    if crash:
        lines.append(
            f"  mid-switch crash: node {crash['node_id']} "
            f"at {crash['at']:.1f}ms (permanent)"
        )
    lines.extend(f"  {f['code']}: {f['message']}" for f in report["findings"])
    live = report.get("live_monitor")
    if live is not None:
        agree = "agrees" if live["agrees_with_audit"] else "DISAGREES"
        lines.append(
            f"  live monitor: {live['violations']} violation(s), "
            f"{live['warnings']} warning(s) over "
            f"{len(live['epoch_agreement'])} epoch(s) — "
            f"{agree} with the post-hoc audit"
        )
    return lines


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CampaignConfig, run_campaign

    churned = args.churn > 0
    reports = []
    failed = 0
    for run_index in range(args.runs):
        config = CampaignConfig(
            hosts=args.hosts,
            groups=args.groups,
            events=args.events,
            churn_events=args.churn,
            switches=args.switches,
            seed=args.seed + run_index,
            horizon=args.horizon,
            loss_rate=args.loss,
            max_retransmits=args.max_retransmits,
            heartbeat_interval=args.interval,
            suspect_after=args.suspect_after,
            # Churn campaigns draw no link outage: one is clean on seeds
            # 0-9, but it would move every pinned churn report.
            link_outages=0 if churned else CampaignConfig.link_outages,
            mid_switch_crash=not args.no_mid_switch_crash,
            transfer_delay=args.transfer_delay,
            backend=args.backend,
        )
        report = run_campaign(
            config, live_monitor=args.live_monitor, mutate=args.monitor_mutate
        )
        reports.append(report)
        bad = not report["ok"]
        if args.live_monitor and not report["live_monitor"]["agrees_with_audit"]:
            bad = True
        if bad:
            failed += 1
    payload = {
        "runs": len(reports),
        "failed": failed,
        "ok": failed == 0,
        "reports": reports,
    }
    kind = "churn" if churned else "chaos"
    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    else:
        render = _churn_text if churned else _chaos_text
        lines = [line for report in reports for line in render(report)]
        lines.append(
            f"{len(reports)} {'churn ' if churned else ''}run(s), "
            f"{failed} failed"
            + ("" if failed == 0 else " — invariant violations above")
        )
        rendered = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"{kind} report written to {args.out}")
    else:
        print(rendered)
    return 0 if failed == 0 else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.forensics import (
        JourneyIndex,
        render_journey,
        render_stalls,
        waits_to_dot,
    )

    if args.trace:
        from repro.obs.exporters import read_trace_jsonl

        index = JourneyIndex(read_trace_jsonl(args.trace))
        source = f"trace {args.trace}"
    else:
        from repro.faults.campaign import CampaignConfig, execute_campaign

        config = CampaignConfig(
            hosts=args.hosts,
            groups=args.groups,
            events=args.events,
            seed=args.seed,
            horizon=args.horizon,
        )
        run = execute_campaign(config)
        index = JourneyIndex(run.fabrics[0].trace)
        source = f"chaos run (seed {args.seed})"

    sections: List[str] = []
    payload: dict = {"source": source}
    status = 0
    if args.message is not None:
        journey = index.journey(args.message)
        if journey is None:
            print(f"message {args.message} not in {source}", file=sys.stderr)
            return 1
        sections.append(render_journey(journey))
        payload["journey"] = journey.to_dict()
    if args.receiver is not None:
        history = index.holdback_history(args.receiver)
        events = [
            e for e in index.buffer_events if e.host == args.receiver
        ]
        lines = [
            f"host {args.receiver}: {len(events)} buffer event(s), "
            f"peak hold-back depth "
            f"{max((d for _, d in history), default=0)}"
        ]
        for event in events:
            drained = (
                f"drained t={event.drain_time:.3f} after {event.waited:.3f} ms"
                if event.resolved
                else "NEVER drained"
            )
            lines.append(
                f"  t={event.time:.3f} message {event.msg_id} blocked on "
                f"{event.blocked_on} seq {event.expected_seq}; {drained} "
                f"[{event.cause}]"
            )
        for time, depth in history:
            lines.append(f"  t={time:.3f} depth={depth}")
        sections.append("\n".join(lines))
        payload["receiver"] = {
            "host": args.receiver,
            "buffer_events": [e.to_dict() for e in events],
            "holdback_history": [
                {"time": time, "depth": depth} for time, depth in history
            ],
        }
    if args.stalls or (args.message is None and args.receiver is None):
        report = index.stall_report(threshold=args.threshold)
        sections.append(render_stalls(report))
        payload["stalls"] = report
    payload["waits"] = index.waits_to_json()

    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = "\n\n".join(sections)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"forensics written to {args.out}")
    else:
        print(rendered)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(waits_to_dot(index))
        print(f"wait-graph DOT written to {args.dot}")
    return status


def _cmd_workload(args: argparse.Namespace) -> int:
    if args.action == "record":
        rng = random.Random(args.seed)
        snapshot = zipf_membership(args.hosts, args.groups, rng=rng)
        events: List[PublishEvent] = []
        groups = sorted(snapshot)
        for index in range(args.events):
            group = rng.choice(groups)
            sender = rng.choice(sorted(snapshot[group]))
            events.append(PublishEvent(sender, group, {"i": index}))
        trace = WorkloadTrace.from_schedule(snapshot, events, name=args.path)
        trace.validate()
        trace.save(args.path)
        print(
            f"recorded {len(events)} events over {len(snapshot)} groups "
            f"({args.hosts} hosts) -> {args.path}"
        )
        return 0
    # replay
    trace = WorkloadTrace.load(args.path)
    trace.validate()
    n_hosts = max(trace.n_hosts(), 2)
    env = ExperimentEnv(n_hosts=n_hosts, seed=args.seed)
    fabric = env.build_fabric(env.membership_from(trace.membership), seed=args.seed)
    published = trace.replay(fabric)
    stuck = fabric.pending_messages()
    print(f"replayed {published} events; undelivered: {stuck or 'none'}")
    violations = 0
    for a, b in itertools.combinations(range(n_hosts), 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        if [m for m in seq_a if m in common] != [m for m in seq_b if m in common]:
            violations += 1
    print(f"pairwise order violations: {violations}")
    return 0 if not stuck and violations == 0 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import exporters
    from repro.obs.forensics import JourneyIndex, render_phases
    from repro.obs.live import PHASES, PhaseLatencyTracker
    from repro.obs.registry import MetricsRegistry
    from repro.obs.resources import GcPauseSampler, register_process_collectors

    env = ExperimentEnv(n_hosts=args.hosts, seed=args.seed)
    rng = random.Random(args.seed)
    snapshot = zipf_membership(args.hosts, args.groups, rng=rng)
    membership = env.membership_from(snapshot)
    registry = MetricsRegistry()
    gc_sampler = GcPauseSampler()
    register_process_collectors(registry, sampler=gc_sampler)
    fabric = env.build_fabric(
        membership, seed=args.seed, trace=True, registry=registry
    )
    latency = PhaseLatencyTracker(registry=registry)
    fabric.trace.subscribe(latency.observe)
    groups = sorted(snapshot)
    with gc_sampler:
        for _ in range(args.events):
            group = rng.choice(groups)
            sender = rng.choice(sorted(snapshot[group]))
            fabric.publish(sender, group)
            if args.gap > 0:
                fabric.run(until=fabric.sim.now + args.gap)
        fabric.run()
    stuck = fabric.pending_messages()

    print(
        f"published {args.events} messages over {len(groups)} groups "
        f"({args.hosts} hosts); {fabric.sim.events_executed} events, "
        f"{len(fabric.trace)} trace records"
    )
    print()
    print("per-group mean phase latency breakdown:")
    print(render_phases(JourneyIndex(fabric.trace)))
    print()
    print("per-phase latency percentiles (virtual ms):")
    summary = latency.summary()
    print(f"{'phase':<12}{'count':>8}{'p50':>10}{'p99':>10}{'p999':>10}{'max':>10}")
    for phase in PHASES:
        stats = summary[phase]
        print(
            f"{phase:<12}{int(stats['count']):>8}"
            f"{stats['p50']:>10.3f}{stats['p99']:>10.3f}"
            f"{stats['p999']:>10.3f}{stats['max']:>10.3f}"
        )
    if args.out:
        path = exporters.write_trace_jsonl(fabric.trace, args.out)
        print(f"trace JSONL written to {path}")
    if args.chrome:
        path = exporters.write_chrome_trace(fabric.trace, args.chrome)
        print(f"Chrome trace (Perfetto-loadable) written to {path}")
    if args.metrics:
        path = exporters.write_prometheus(registry, args.metrics)
        print(f"Prometheus metrics written to {path}")
    if stuck:
        print(f"WARNING: undelivered messages at {stuck}")
    return 0 if not stuck else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live import top

    if (args.replay is None) == (args.connect is None):
        print(
            "repro top: exactly one of --replay FILE or --connect PORT "
            "is required",
            file=sys.stderr,
        )
        return 2
    clear = not args.no_clear and sys.stdout.isatty()
    try:
        if args.replay is not None:
            frames = top.iter_replay(
                args.replay,
                window_ms=args.window,
                stall_threshold_ms=args.stall_threshold,
            )
        else:
            frames = top.iter_live(
                args.host, args.connect,
                interval=args.interval, frames=args.frames,
            )
        last = top.run_top(frames, clear=clear)
    except KeyboardInterrupt:
        print()
        return 0
    return 1 if last.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="tiny end-to-end ordering demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--backend", choices=("sim", "asyncio"), default="sim",
        help="runtime backend: deterministic simulator (default) or the "
        "live asyncio event loop",
    )
    demo.set_defaults(func=_cmd_demo)

    serve = sub.add_parser(
        "serve",
        help="run the ordering fabric as a live asyncio TCP service",
    )
    serve.add_argument("--hosts", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--loss-rate", type=float, default=0.0)
    serve.add_argument(
        "--time-scale", type=float, default=1e-5,
        help="real seconds per virtual millisecond (default: 1e-5)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--self-test", action="store_true",
        help="boot on an ephemeral port, run a scripted publish/subscribe "
        "round trip with live C1/C2 verification, then shut down",
    )
    serve.set_defaults(func=_cmd_serve)

    figures = sub.add_parser(
        "figures", help="reproduce paper figures (args passed through)"
    )
    figures.add_argument("rest", nargs=argparse.REMAINDER)
    figures.set_defaults(func=_cmd_figures)

    an = sub.add_parser("analyze", help="report on a Zipf workload's graph")
    an.add_argument("--hosts", type=int, default=64)
    an.add_argument("--groups", type=int, default=16)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--dot", default=None, help="write placement DOT here")
    an.add_argument("--graph-dot", default=None, help="write graph DOT here")
    an.add_argument(
        "--export-certificate",
        default=None,
        help="write a JSON graph certificate (verifiable by `repro check`)",
    )
    an.set_defaults(func=_cmd_analyze)

    check = sub.add_parser(
        "check",
        help="static analysis: simlint + sequencing-graph invariant verifier",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    check.add_argument(
        "--certificate",
        action="append",
        default=[],
        metavar="FILE",
        help="also verify this exported graph certificate (repeatable)",
    )
    check.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CODE",
        help="run only these simlint rule codes (repeatable)",
    )
    check.add_argument("--no-lint", action="store_true", help="skip simlint")
    check.add_argument(
        "--no-graph", action="store_true", help="skip graph self-verification"
    )
    check.add_argument(
        "--explore", action="store_true",
        help="also run the budgeted model-check smoke scenarios (MC4xx)",
    )
    check.add_argument(
        "--async-lint", dest="async_lint", action="store_true",
        help="also run the asyncio concurrency rules (SL110-SL114) over "
        "repro.runtime (or the given paths)",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    check.set_defaults(func=_cmd_check)

    explore = sub.add_parser(
        "explore",
        help="model-check a small configuration: enumerate every reduced "
        "message/timer interleaving and audit the MC4xx invariants",
    )
    explore.add_argument("--groups", type=int, default=2)
    explore.add_argument("--hosts", type=int, default=3)
    explore.add_argument(
        "--messages", type=int, default=1,
        help="publish rounds (one message per group each; default 1)",
    )
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--loss", type=float, default=0.0, help="per-channel loss rate"
    )
    explore.add_argument(
        "--crash", action="append", default=[], metavar="NODE@AT[:DURATION]",
        help="crash sequencing node NODE at virtual time AT (repeatable); "
        "omit :DURATION for a permanent crash",
    )
    explore.add_argument(
        "--mutate", choices=("skip-stamp", "drop-delivery", "dup-delivery"),
        default=None,
        help="inject a seeded protocol mutation (checker validation)",
    )
    explore.add_argument("--max-schedules", type=int, default=5000)
    explore.add_argument("--max-depth", type=int, default=200)
    explore.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a counterexample document instead of exploring",
    )
    explore.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    explore.add_argument(
        "--out", default=None, help="write the report here instead of stdout"
    )
    explore.set_defaults(func=_cmd_explore)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaigns with detection and failover, "
        "optionally under membership churn",
    )
    chaos.add_argument("--hosts", type=int, default=24)
    chaos.add_argument("--groups", type=int, default=8)
    chaos.add_argument("--events", type=int, default=60)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--runs", type=int, default=1,
        help="campaigns to run (seeds seed, seed+1, ...)",
    )
    chaos.add_argument(
        "--horizon", type=float, default=400.0,
        help="traffic/fault window in virtual ms",
    )
    chaos.add_argument(
        "--loss", type=float, default=0.01,
        help="baseline per-packet loss probability",
    )
    chaos.add_argument(
        "--interval", type=float, default=5.0,
        help="heartbeat ping interval in virtual ms",
    )
    chaos.add_argument(
        "--suspect-after", type=int, default=3,
        help="missed heartbeat intervals tolerated before suspicion",
    )
    chaos.add_argument(
        "--transfer-delay", type=float, default=1.0,
        help="failover state-transfer downtime in virtual ms",
    )
    chaos.add_argument(
        "--max-retransmits", type=int, default=None,
        help="per-packet retransmission budget (default: fabric default)",
    )
    chaos.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="compose N join/leave events with online epoch-fenced "
        "reconfiguration (RT32x audited; the churn report); 0 = one epoch",
    )
    chaos.add_argument(
        "--switches", type=int, default=5,
        help="online epoch switches per churn campaign (with --churn)",
    )
    chaos.add_argument(
        "--backend", choices=("sim", "asyncio"), default="sim",
        help="runtime backend: sim (deterministic) or asyncio (live timers)",
    )
    chaos.add_argument(
        "--no-mid-switch-crash", action="store_true",
        help="skip the permanent crash injected mid-epoch-switch "
        "(with --churn)",
    )
    chaos.add_argument(
        "--live-monitor", action="store_true",
        help="attach the streaming invariant monitors (LM3xx) to the run; "
        "the report gains a live_monitor block and the exit status also "
        "fails if the live findings disagree with the post-hoc audit",
    )
    chaos.add_argument(
        "--monitor-mutate",
        choices=("skip-stamp", "drop-delivery", "dup-delivery"),
        default=None,
        help="inject a seeded protocol mutation into every epoch's fabric "
        "(monitor validation: the streaming monitors must fire)",
    )
    chaos.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    chaos.add_argument("--out", default=None, help="write the report here")
    chaos.set_defaults(func=_cmd_chaos)

    explain = sub.add_parser(
        "explain",
        help="ordering forensics: message journeys, blocking pairs, stall causes",
    )
    explain.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="analyze this trace JSONL instead of running a chaos campaign",
    )
    explain.add_argument("--hosts", type=int, default=16)
    explain.add_argument("--groups", type=int, default=6)
    explain.add_argument("--events", type=int, default=40)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--horizon", type=float, default=250.0,
        help="traffic/fault window in virtual ms (inline chaos run)",
    )
    explain.add_argument(
        "--message", type=int, default=None,
        help="reconstruct this message's end-to-end journey",
    )
    explain.add_argument(
        "--receiver", type=int, default=None,
        help="this host's hold-back history and buffer events",
    )
    explain.add_argument(
        "--stalls", action="store_true",
        help="stall report (the default when no other query is given)",
    )
    explain.add_argument(
        "--threshold", type=float, default=0.0,
        help="minimum hold-back wait (ms) for the stall report",
    )
    explain.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    explain.add_argument("--out", default=None, help="write the report here")
    explain.add_argument(
        "--dot", default=None, help="write the who-waited-on-whom DOT graph here"
    )
    explain.set_defaults(func=_cmd_explain)

    workload = sub.add_parser("workload", help="record/replay workload traces")
    workload.add_argument("action", choices=("record", "replay"))
    workload.add_argument("path")
    workload.add_argument("--hosts", type=int, default=32)
    workload.add_argument("--groups", type=int, default=8)
    workload.add_argument("--events", type=int, default=50)
    workload.add_argument("--seed", type=int, default=0)
    workload.set_defaults(func=_cmd_workload)

    trace = sub.add_parser(
        "trace", help="run an instrumented workload and export observability data"
    )
    trace.add_argument("action", choices=("run",))
    trace.add_argument("--hosts", type=int, default=32)
    trace.add_argument("--groups", type=int, default=8)
    trace.add_argument("--events", type=int, default=100)
    trace.add_argument(
        "--gap",
        type=float,
        default=0.5,
        help="virtual ms to advance between publishes (0 = burst)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None, help="write trace JSONL here")
    trace.add_argument(
        "--chrome", default=None, help="write Chrome trace-event JSON here"
    )
    trace.add_argument(
        "--metrics", default=None, help="write Prometheus-style metrics here"
    )
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="refreshing operator view: throughput, phase latency "
        "percentiles, hold-back occupancy, monitor alerts",
    )
    top.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay this trace JSONL through the streaming monitors",
    )
    top.add_argument(
        "--connect", type=int, default=None, metavar="PORT",
        help="poll a running `repro serve` instance's metrics verb",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in wall seconds (with --connect)",
    )
    top.add_argument(
        "--frames", type=int, default=None,
        help="stop after N frames (with --connect; default: until q/Ctrl-C)",
    )
    top.add_argument(
        "--window", type=float, default=100.0,
        help="virtual ms of trace per frame (with --replay)",
    )
    top.add_argument(
        "--stall-threshold", type=float, default=None,
        help="hold-back stall alert threshold in virtual ms (with --replay)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (CI/log friendly)",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # "figures" forwards its arguments verbatim to the experiment runner
    # (argparse.REMAINDER cannot start with an optional at the top level).
    if argv and argv[0] == "figures":
        return figure_runner.main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
