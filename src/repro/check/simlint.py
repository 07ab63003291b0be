"""simlint — AST determinism linter for the simulation codebase.

The reproduction's results are only meaningful if a run is a pure
function of its seed.  ``validate()`` guards the graph invariants at
runtime; simlint guards the *code* against the ways determinism is
usually lost in discrete-event simulators:

* reading the wall clock where virtual time is required,
* drawing randomness from the process-global RNG instead of an
  injected, seeded ``random.Random``,
* comparing simulated timestamps (floats accumulated through
  arithmetic) with ``==``/``!=``,
* mutable default arguments (state leaking across calls/instances),
* bare ``except`` (swallowing ``SimulationError`` and friends),
* iterating an unordered set/dict straight into an order-sensitive
  sink (heap pushes, event scheduling, packet sends) — iteration
  order is insertion-dependent, so replays diverge.

Rules live in a registry keyed by stable ``SL1xx`` codes; each has a
severity and a *scope*: ``"sim"`` rules apply only to the
simulation-critical packages (``repro.sim``, ``repro.core``), ``"all"``
rules to every module under ``repro``.

Suppressions
------------
A violation is suppressed by a trailing comment on the flagged line or
on a comment-only line directly above it::

    t = perf_counter()  # simlint: disable=SL101  -- profiling only

``disable=all`` silences every rule for that line.  A whole module opts
out of one rule with ``# simlint: disable-file=SL103`` on any line.
Suppressions are deliberate, visible decisions — the rule catalog in
``docs/STATIC_ANALYSIS.md`` asks each one to carry a justification.
"""

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.findings import SEVERITY_ERROR, Finding

TOOL = "simlint"

#: dotted module prefixes in which the "sim"-scoped rules apply.  The
#: one sanctioned clock read is the ``read_wall_clock`` shim in
#: ``repro.runtime.wallclock`` (suppressed inline with a justification).
SIM_SCOPED_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.runtime",
    # The live telemetry plane consumes the trace stream in-path; its
    # alert feeds are byte-compared across fixed-seed runs, so it must
    # be a pure function of the record stream (virtual time only).
    "repro.obs.live",
)

#: dotted module prefixes in which the "async"-scoped rules (the
#: SL110-SL114 concurrency family, registered by
#: :mod:`repro.check.asynclint`) apply — the packages that actually run
#: coroutines on an event loop.
ASYNC_SCOPED_PREFIXES = ("repro.runtime",)

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+)")

#: wall-clock reads: imported module -> functions that read real time
WALL_CLOCK_CALLS = {
    "time": {"time", "monotonic", "perf_counter", "process_time", "time_ns",
             "monotonic_ns", "perf_counter_ns"},
    "datetime.datetime": {"now", "utcnow", "today"},
    "datetime.date": {"today"},
}

#: functions on the ``random`` module that draw from the global RNG
#: (constructing a ``random.Random``/``SystemRandom`` instance is the
#: sanctioned pattern and is not flagged)
GLOBAL_RANDOM_EXEMPT = {"Random", "SystemRandom", "seed"}

#: identifiers that look like simulated timestamps (absolute virtual
#: times); durations like ``delay`` are deliberately excluded — exact
#: equality of configured constants is meaningful, accumulated clock
#: readings are not
TIMESTAMP_NAME_RE = re.compile(
    r"(?:^|_)(now|time|until|arrival|deadline|publish_time|delivery_time)$"
)

#: call targets whose argument order is observable in simulation results
ORDER_SENSITIVE_SINKS = {
    "heappush", "heappush_max", "schedule", "schedule_at", "send",
    "publish", "transmit", "_transmit", "appendleft",
}

#: iterable producers with no deterministic order guarantee.  Dict views
#: (``.keys()``/``.values()``/``.items()``) are insertion-ordered and so
#: reproducible under a fixed seed; set constructors and set operations
#: are not, and stay flagged unless laundered through ``sorted(...)``.
UNORDERED_PRODUCERS = {"set", "frozenset"}
UNORDERED_METHODS = {"intersection", "union", "difference",
                     "symmetric_difference"}


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    severity: str
    scope: str  # "sim" | "async" | "all"
    summary: str
    checker: Callable[["ModuleContext"], Iterator[Finding]]


RULES: Dict[str, Rule] = {}


def rule(
    code: str, name: str, summary: str, scope: str = "all",
    severity: str = SEVERITY_ERROR,
) -> Callable:
    """Class/function decorator registering a checker under ``code``."""
    if scope not in ("sim", "async", "all"):
        raise ValueError(f"unknown rule scope {scope!r}")

    def register(checker: Callable[["ModuleContext"], Iterator[Finding]]):
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code, name, severity, scope, summary, checker)
        return checker

    return register


class ModuleContext:
    """Everything a rule needs about one parsed module."""

    def __init__(self, path: Path, rel: str, module: str, source: str):
        self.path = path
        self.rel = rel  # repo-relative path used in findings
        self.module = module  # dotted module name, e.g. "repro.sim.events"
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.is_sim_scoped = module.startswith(SIM_SCOPED_PREFIXES)
        self.is_async_scoped = module.startswith(ASYNC_SCOPED_PREFIXES)
        #: local alias -> imported module ("import random as _r" -> {_r: random})
        self.module_aliases: Dict[str, str] = {}
        #: local name -> "module.attr" ("from time import time" -> {time: time.time})
        self.imported_names: Dict[str, str] = {}
        self._collect_imports()
        self.file_disabled = self._collect_file_suppressions()

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _collect_file_suppressions(self) -> Set[str]:
        disabled: Set[str] = set()
        for line in self.lines:
            match = _SUPPRESS_FILE_RE.search(line)
            if match:
                disabled.update(
                    code.strip().upper() for code in match.group(1).split(",")
                )
        return disabled

    def _line_suppressions(self, lineno: int) -> Set[str]:
        codes: Set[str] = set()
        for candidate in (lineno, lineno - 1):
            if not 1 <= candidate <= len(self.lines):
                continue
            text = self.lines[candidate - 1]
            if candidate != lineno and text.strip() and not text.lstrip().startswith("#"):
                continue  # the line above only counts if it is a pure comment
            match = _SUPPRESS_RE.search(text)
            if match:
                codes.update(c.strip().upper() for c in match.group(1).split(","))
        return codes

    def suppressed(self, code: str, lineno: int) -> bool:
        if code in self.file_disabled or "ALL" in self.file_disabled:
            return True
        line_codes = self._line_suppressions(lineno)
        return code in line_codes or "ALL" in line_codes

    # -- resolution helpers used by several rules -----------------------

    def call_target(self, call: ast.Call) -> Optional[str]:
        """Resolve a call's dotted target through import aliases.

        ``_random.Random(...)`` with ``import random as _random`` resolves
        to ``random.Random``; ``perf_counter()`` after ``from time import
        perf_counter`` resolves to ``time.perf_counter``.  Returns ``None``
        for calls that cannot be resolved statically (methods on objects).
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self.imported_names.get(func.id, func.id)
        if isinstance(func, ast.Attribute):
            parts: List[str] = [func.attr]
            value = func.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                base = value.id
                resolved = self.module_aliases.get(base) or self.imported_names.get(base)
                parts.append(resolved if resolved else base)
                return ".".join(reversed(parts))
        return None

    def finding(self, rule_: Rule, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=rule_.code,
            message=message,
            severity=rule_.severity,
            file=self.rel,
            line=getattr(node, "lineno", None),
            tool=TOOL,
        )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@rule(
    "SL101", "wall-clock-read",
    "wall-clock read in a simulation-scoped module", scope="sim",
)
def check_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``time.time()``-style calls: virtual time must come from the
    :class:`~repro.sim.events.Simulator`, never the host clock."""
    rule_ = RULES["SL101"]
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.call_target(node)
        if target is None or "." not in target:
            continue
        module, _, attr = target.rpartition(".")
        if attr in WALL_CLOCK_CALLS.get(module, ()):
            yield ctx.finding(
                rule_, node,
                f"wall-clock read `{target}()`; simulation code must take "
                "time from the Simulator's virtual clock",
            )


@rule(
    "SL102", "global-random",
    "module-level random.* call bypasses the injected seeded RNG", scope="sim",
)
def check_global_random(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``random.choice(...)`` etc.: all randomness must flow through
    an injected ``random.Random`` so a seed reproduces the run."""
    rule_ = RULES["SL102"]
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.call_target(node)
        if target is None:
            continue
        module, _, attr = target.rpartition(".")
        if module == "random" and attr not in GLOBAL_RANDOM_EXEMPT:
            yield ctx.finding(
                rule_, node,
                f"`{target}()` draws from the process-global RNG; route "
                "randomness through an injected seeded random.Random",
            )


def _is_timestamp_expr(node: ast.AST) -> bool:
    """Whether an expression's terminal identifier names a virtual time."""
    if isinstance(node, ast.Attribute):
        return bool(TIMESTAMP_NAME_RE.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(TIMESTAMP_NAME_RE.search(node.id))
    return False


def _eq_exempt_operand(node: ast.AST) -> bool:
    """Operands whose equality comparison with a timestamp is not a float
    hazard: string/None constants (kind tags, sentinels) and plain integer
    zero (the canonical 'never set' initial value)."""
    if not isinstance(node, ast.Constant):
        return False
    value = node.value
    if value is None or isinstance(value, str):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value == 0


@rule(
    "SL103", "float-time-equality",
    "==/!= comparison on simulated timestamps", scope="sim",
)
def check_time_equality(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``==``/``!=`` where an operand looks like a virtual timestamp.

    Simulated times are floats accumulated through arithmetic; exact
    equality silently turns into 'never' after a delay model change.
    Order comparisons (``<``, ``>=``) are the supported idiom.
    """
    rule_ = RULES["SL103"]
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            temporal = _is_timestamp_expr(left) or _is_timestamp_expr(right)
            if not temporal:
                continue
            if _eq_exempt_operand(left) or _eq_exempt_operand(right):
                continue
            yield ctx.finding(
                rule_, node,
                "simulated timestamps are accumulated floats; compare with "
                "ordering (<, >=) or an explicit tolerance, not ==/!=",
            )
            break  # one finding per comparison chain


@rule(
    "SL104", "mutable-default",
    "mutable default argument", scope="all",
)
def check_mutable_default(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag list/dict/set literals (or constructor calls) as defaults —
    shared across calls, they leak state between simulation runs."""
    rule_ = RULES["SL104"]
    mutable_calls = {"list", "dict", "set", "defaultdict", "deque", "bytearray"}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                       ast.DictComp, ast.SetComp))
            if isinstance(default, ast.Call):
                target = ctx.call_target(default)
                bad = bad or (target in mutable_calls)
            if bad:
                yield ctx.finding(
                    rule_, default,
                    f"mutable default argument in `{node.name}()`; default "
                    "to None and construct inside the function",
                )


@rule(
    "SL105", "bare-except",
    "bare `except:` swallows simulator errors", scope="all",
)
def check_bare_except(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``except:`` with no exception type — it hides
    ``SimulationError``/``GraphInvariantError`` and corrupts runs silently."""
    rule_ = RULES["SL105"]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                rule_, node,
                "bare `except:` catches SimulationError and "
                "KeyboardInterrupt alike; name the exceptions expected here",
            )


def _unordered_iterable(ctx: ModuleContext, node: ast.AST) -> Optional[str]:
    """Describe why ``node`` iterates in no guaranteed order, or None.

    ``sorted(...)`` (and other ordering wrappers applied to the whole
    iterable) launder the order.  Dict views are insertion-ordered in
    modern Python but that order is *history-dependent*, which is exactly
    what makes replays fragile, so ``.keys()/.values()/.items()`` on
    names that look set-like stay exempt while set constructors and set
    operations are flagged.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        target = ctx.call_target(node)
        if target in UNORDERED_PRODUCERS:
            return f"`{target}(...)`"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in UNORDERED_METHODS
        ):
            return f"a set `.{node.func.attr}()` result"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr,
                                                            ast.BitXor, ast.Sub)):
        # ``members_a & members_b`` — set algebra on membership sets is
        # the common producer in this codebase.
        if any(_set_algebra_operand(side) for side in (node.left, node.right)):
            return "a set-algebra expression"
    return None


def _set_algebra_operand(node: ast.AST) -> bool:
    """Heuristic: operand names that conventionally hold sets here."""
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name is not None and bool(
        re.search(r"(members|_set|seen|retired|ids)$", name)
    )


def _contains_sink(body: Sequence[ast.stmt]) -> Optional[Tuple[ast.Call, str]]:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in ORDER_SENSITIVE_SINKS:
                return node, name
    return None


@rule(
    "SL106", "unordered-into-sink",
    "unordered iteration feeds an order-sensitive sink", scope="sim",
)
def check_unordered_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``for x in {set}`` loops whose body schedules events, pushes
    heap entries, or sends packets — wrap the iterable in ``sorted()``."""
    rule_ = RULES["SL106"]
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        reason = _unordered_iterable(ctx, node.iter)
        if reason is None:
            continue
        sink = _contains_sink(node.body)
        if sink is None:
            continue
        yield ctx.finding(
            rule_, node,
            f"iterating {reason} into order-sensitive `{sink[1]}(...)`; "
            "wrap the iterable in sorted() to pin the order",
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    rel: str = "<string>",
    module: str = "repro.core.inline",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module's source text (testing/entry-point convenience)."""
    try:
        ctx = ModuleContext(Path(rel), rel, module, source)
    except SyntaxError as exc:
        return [
            Finding(
                code="SL100",
                message=f"syntax error: {exc.msg}",
                file=rel,
                line=exc.lineno,
                tool=TOOL,
            )
        ]
    findings: List[Finding] = []
    for code in sorted(select or RULES):
        rule_ = RULES[code]
        if rule_.scope == "sim" and not ctx.is_sim_scoped:
            continue
        if rule_.scope == "async" and not ctx.is_async_scoped:
            continue
        for finding in rule_.checker(ctx):
            if finding.line is not None and ctx.suppressed(rule_.code, finding.line):
                continue
            findings.append(finding)
    return findings


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the package root's parent."""
    rel = path.relative_to(root.parent)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def lint_path(
    root: Path, select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint every ``*.py`` under ``root`` (a package directory or file).

    Returns the findings plus the number of files inspected.  ``root``
    should be the ``repro`` package directory so module names (and with
    them the sim-scoped rule set) resolve correctly.
    """
    root = Path(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    findings: List[Finding] = []
    package_root = root if root.is_dir() else root.parent
    for path in files:
        source = path.read_text(encoding="utf-8")
        module = module_name_for(path, package_root)
        rel = str(path.relative_to(package_root.parent))
        findings.extend(lint_source(source, rel=rel, module=module, select=select))
    return findings, len(files)


# The asyncio-concurrency rule family (SL110-SL114) lives in its own
# module but registers into this registry; importing it here keeps
# `import repro.check.simlint` sufficient to know every rule.  The import
# sits at the tail because asynclint needs the names defined above.
from repro.check import asynclint as _asynclint  # noqa: E402,F401
