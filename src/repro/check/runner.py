"""Orchestration for ``repro check``: every analyzer in one run.

Up to five analysis sources feed one
:class:`~repro.check.findings.CheckReport`, merged under a single
schema version:

1. **simlint** over the installed ``repro`` package sources (or explicit
   paths),
2. **graph self-verification** — a sweep of seeded Zipf workloads whose
   sequencing graphs and placements are built the production way, then
   audited by :mod:`repro.check.graph_verify` (including one dynamic
   add/remove episode per scenario, since reconfiguration is where
   invariants historically break),
3. **certificate verification** for exported JSON certificates,
4. **model checking** (``--explore``) — budgeted schedule-space smoke
   scenarios through :mod:`repro.check.explore`,
5. **async-lint** (``--async-lint``) — the SL110-SL114 concurrency
   rules over ``repro.runtime``.

Each analyzer runs under a crash guard: an analyzer that *raises* (as
opposed to reporting findings) contributes a ``CK000`` tool-crash
finding instead of aborting the run, so ``--format json`` always emits
a complete report for CI to parse.  The exit code is the CI contract:
0 iff no findings.
"""

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional, Sequence, Tuple

import repro
from repro.check import graph_verify, simlint
from repro.check.findings import CheckReport, Finding, render_json, render_text


@dataclass(frozen=True)
class GraphScenario:
    """One self-verification workload shape."""

    hosts: int
    groups: int
    seed: int
    #: run a remove+add reconfiguration episode before the final audit
    dynamic: bool = True


#: Default sweep: small dense, mid-size, and a larger sparse workload,
#: each at two seeds.  Cheap (< a second) but covers single-chain,
#: multi-cluster, and ingress-only-heavy graph shapes.
DEFAULT_SCENARIOS: Tuple[GraphScenario, ...] = (
    GraphScenario(hosts=16, groups=6, seed=0),
    GraphScenario(hosts=16, groups=6, seed=7),
    GraphScenario(hosts=48, groups=12, seed=1),
    GraphScenario(hosts=48, groups=12, seed=11),
    GraphScenario(hosts=96, groups=8, seed=3),
    GraphScenario(hosts=96, groups=24, seed=5),
)


def default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(repro.__file__).resolve().parent


def run_simlint(
    paths: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint the given paths (default: the whole ``repro`` package)."""
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]
    findings: List[Finding] = []
    inspected = 0
    for root in roots:
        if not root.exists():
            findings.append(
                Finding(
                    code="SL100",
                    message=f"lint path does not exist: {root}",
                    file=str(root),
                    tool=simlint.TOOL,
                )
            )
            continue
        batch, count = simlint.lint_path(root, select=select)
        findings.extend(batch)
        inspected += count
    return findings, inspected


def run_graph_self_verification(
    scenarios: Sequence[GraphScenario] = DEFAULT_SCENARIOS,
) -> Tuple[List[Finding], int]:
    """Build seeded workload graphs the production way and audit them."""
    # Imported here so `repro check --no-graph` (and the simlint unit
    # tests) never pay for importing the topology, routing and placement
    # layers.
    from repro.core.placement import place
    from repro.core.sequencing_graph import SequencingGraph
    from repro.topology.clusters import attach_hosts
    from repro.topology.gtitm import TransitStubParams, generate_transit_stub
    from repro.topology.routing import RoutingTable
    from repro.workloads.zipf import zipf_membership

    findings: List[Finding] = []
    checked = 0
    for scenario in scenarios:
        rng = random.Random(scenario.seed)
        snapshot = zipf_membership(scenario.hosts, scenario.groups, rng=rng)
        graph = SequencingGraph.build(snapshot, rng=random.Random(scenario.seed))

        topology = generate_transit_stub(
            TransitStubParams.small(), seed=scenario.seed
        )
        routing = RoutingTable(topology)
        hosts = attach_hosts(
            topology, scenario.hosts, rng=random.Random(scenario.seed)
        )
        host_router = {h.host_id: h.router for h in hosts}
        placement = place(
            graph, host_router, topology, routing,
            rng=random.Random(scenario.seed),
        )
        label = (
            f"zipf(hosts={scenario.hosts}, groups={scenario.groups}, "
            f"seed={scenario.seed})"
        )
        findings.extend(
            _tag_scenario(graph_verify.verify_graph(graph, placement), label)
        )
        checked += 1

        if scenario.dynamic and len(snapshot) >= 2:
            # Exercise the incremental path: drop one group (lazily) and
            # add a fresh one overlapping two existing groups, then audit.
            groups = sorted(snapshot)
            victim = groups[len(groups) // 2]
            graph.remove_group(victim, lazy=True)
            donors = [g for g in groups if g != victim][:2]
            members = sorted(set().union(*(snapshot[g] for g in donors)))
            new_group = max(groups) + 1
            graph.add_group(new_group, members[: max(4, len(members) // 2)])
            findings.extend(
                _tag_scenario(
                    graph_verify.verify_graph(graph), f"{label} after churn"
                )
            )
            checked += 1
    return findings, checked


def _tag_scenario(findings: List[Finding], label: str) -> List[Finding]:
    return [
        Finding(
            code=f.code,
            message=f"{f.message} (in {label})",
            severity=f.severity,
            anchor=f.anchor,
            tool=f.tool,
        )
        for f in findings
    ]


def run_certificates(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Verify exported certificate files."""
    findings: List[Finding] = []
    for path in paths:
        try:
            cert = graph_verify.load_certificate(path)
        except (OSError, ValueError) as exc:
            findings.append(
                Finding(
                    code="GV200",
                    message=f"cannot load certificate: {exc}",
                    file=str(path),
                    tool=graph_verify.TOOL,
                )
            )
            continue
        for finding in graph_verify.verify_certificate(cert):
            findings.append(
                Finding(
                    code=finding.code,
                    message=f"{finding.message} (certificate {path})",
                    severity=finding.severity,
                    anchor=finding.anchor,
                    tool=finding.tool,
                )
            )
    return findings, len(paths)


def run_async_lint(
    paths: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """The SL110-SL114 concurrency family over the asyncio runtime."""
    from repro.check import asynclint

    roots = paths if paths else [str(default_lint_root() / "runtime")]
    return run_simlint(roots, select=list(asynclint.ASYNC_RULE_CODES))


def run_explore_smoke() -> Tuple[List[Finding], int]:
    """Budgeted model-check scenarios (the ``--explore`` analyzer)."""
    # Imported lazily: the explorer pulls in the protocol/topology stack.
    from repro.check.explore import run_explore_check

    return run_explore_check()


def _crash_finding(tool: str, exc: BaseException) -> Finding:
    """An analyzer raised instead of reporting; fail loud, not silent."""
    return Finding(
        code="CK000",
        message=(
            f"analyzer crashed: {type(exc).__name__}: {exc} "
            "(findings from this tool are incomplete)"
        ),
        tool=tool,
    )


def _run_guarded(report: CheckReport, tool: str, key: str, runner) -> None:
    """Run one analyzer; on a raise, record CK000 but keep the report.

    ``--format json`` must emit a parseable report even when a rule
    module is broken — a crashed analyzer is itself a finding, and the
    other analyzers' findings still merge into the same report.
    """
    if tool not in report.tools:
        report.tools.append(tool)
    try:
        findings, inspected = runner()
    except Exception as exc:  # noqa: BLE001 - the guard is the point
        report.findings.append(_crash_finding(tool, exc))
        return
    report.extend(findings)
    report.inspected[key] = report.inspected.get(key, 0) + inspected


def run_check(
    paths: Optional[Sequence[str]] = None,
    certificates: Sequence[str] = (),
    lint: bool = True,
    graphs: bool = True,
    select: Optional[Sequence[str]] = None,
    fmt: str = "text",
    stream: Optional[IO[str]] = None,
    explore: bool = False,
    async_lint: bool = False,
) -> int:
    """Full ``repro check`` run; prints a report, returns the exit code."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    stream = stream if stream is not None else sys.stdout
    report = CheckReport()
    if lint:
        _run_guarded(
            report, simlint.TOOL, "files",
            lambda: run_simlint(paths, select=select),
        )
    if graphs:
        _run_guarded(
            report, graph_verify.TOOL, "graphs", run_graph_self_verification
        )
    if certificates:
        _run_guarded(
            report, graph_verify.TOOL, "certificates",
            lambda: run_certificates(certificates),
        )
    if explore:
        _run_guarded(report, "model-check", "schedules", run_explore_smoke)
    if async_lint:
        from repro.check import asynclint

        _run_guarded(
            report, asynclint.TOOL, "async_files",
            lambda: run_async_lint(paths),
        )
    renderer = render_json if fmt == "json" else render_text
    print(renderer(report), file=stream)
    return report.exit_code
