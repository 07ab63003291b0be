"""Reachability guard: every function, method and class in ``src/repro``
is referred to from code that runs outside the test suite.

A name-level scan with the stdlib ``ast`` and nothing else.  The roots:

* the console script ``repro.cli:main``, whose parser names every command
  handler;
* every name in a code span of ``docs/API.md``;
* every name ``bench/``, ``benchmarks/`` or ``examples/`` refers to or
  imports, including names in path-like strings such as the
  ``"module:Class.method"`` entry points ``bench/spans.py`` wraps;
* module-level code, module-level dunders, and checks registered with
  ``@rule(...)``.

A class is reached when a reached piece of code names it; its class-level
code and its dunder methods come with it.  Any other method is reached
when its class is and a reached piece of code names it — by name only, so
``x.run()`` reaches the ``run`` of every reached class.  ``tests/`` is
not a root: a definition only tests use fails, by name.

A definition kept anyway is listed in ``reachability_allowlist.txt`` next
to this file, one per line as ``module:Qualified.name  reason``.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
ROOT_DIRS = ("bench", "benchmarks", "examples")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_PATH_LIKE = re.compile(r"[\w.:]+")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")


class Definition(NamedTuple):
    key: str  # "repro.core.delivery:DeliveryState.on_receive"
    name: str
    #: key of the enclosing class, for methods and nested classes
    owner: Optional[str]
    #: names its own code refers to (a class's: bases, decorators,
    #: class-level statements; not its methods')
    refs: Set[str]
    root: bool
    line: int


def names_in(nodes: Iterable[ast.AST], strings: bool = False) -> Set[str]:
    """Identifiers and attribute names in ``nodes``, and the attribute a
    ``getattr``/``hasattr`` call names as a string; with ``strings``, also
    every name inside a path-like string constant."""
    found: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("getattr", "hasattr")
                and len(sub.args) > 1
                and isinstance(sub.args[1], ast.Constant)
            ):
                found.add(str(sub.args[1].value))
            elif strings and isinstance(sub, ast.alias):
                found.update(_IDENTIFIER.findall(sub.name))
            elif (
                strings
                and isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and _PATH_LIKE.fullmatch(sub.value)
            ):
                found.update(_IDENTIFIER.findall(sub.value))
    return found


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "rule"
        for d in getattr(node, "decorator_list", ())
    )


def scan_module(module: str, tree: ast.Module) -> Tuple[List[Definition], Set[str]]:
    """The module's definitions, and the names its module-level code uses."""
    definitions: List[Definition] = []

    def visit(body: List[ast.stmt], prefix: str, owner: Optional[str]) -> List[ast.stmt]:
        """Record the defs in ``body``; return its other statements."""
        rest = []
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module}:{prefix}{node.name}"
                root = _registered(node) or (owner is None and _dunder(node.name))
                definitions.append(
                    Definition(key, node.name, owner, names_in([node]), root, node.lineno)
                )
            elif isinstance(node, ast.ClassDef):
                key = f"{module}:{prefix}{node.name}"
                own = visit(node.body, f"{prefix}{node.name}.", key)
                refs = names_in(node.decorator_list + node.bases + node.keywords + own)
                definitions.append(
                    Definition(key, node.name, owner, refs, _registered(node), node.lineno)
                )
            else:
                rest.append(node)
        return rest

    return definitions, names_in(visit(tree.body, "", None))


def unreached(
    definitions: List[Definition], names: Set[str], kept: Iterable[str] = ()
) -> List[Definition]:
    """The definitions nothing reached refers to, starting from ``names``,
    the root definitions and the ``kept`` keys."""
    named = set(names)
    reached: Set[str] = set()
    definitions = [d._replace(root=True) if d.key in kept else d for d in definitions]
    changed = True
    while changed:
        changed = False
        for d in definitions:
            if d.key in reached or (d.owner is not None and d.owner not in reached):
                continue
            if d.root or d.name in named or (d.owner is not None and _dunder(d.name)):
                reached.add(d.key)
                named |= d.refs
                changed = True
    return [d for d in definitions if d.key not in reached]


def src_modules() -> Dict[str, ast.Module]:
    src = ROOT / "src"
    return {
        ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(
            ".__init__"
        ): ast.parse(path.read_text(), filename=str(path))
        for path in sorted((src / "repro").rglob("*.py"))
    }


def root_names() -> Set[str]:
    names = {"main"}  # the console script, repro.cli:main
    names.update(
        _IDENTIFIER.findall(
            " ".join(_CODE_SPAN.findall((ROOT / "docs" / "API.md").read_text()))
        )
    )
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            names |= names_in([ast.parse(path.read_text())], strings=True)
    return names


def read_allowlist() -> Dict[str, str]:
    """``{key: reason}`` from the allow-list (``#`` starts a comment line)."""
    entries: Dict[str, str] = {}
    for line in ALLOWLIST.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        assert key not in entries, f"{key} listed twice"
        entries[key] = reason.strip()
    return entries


def dead_definitions(kept: Iterable[str] = ()) -> List[Definition]:
    """What nothing reaches when the ``kept`` definitions count as roots
    (so what only they use is kept with them)."""
    definitions: List[Definition] = []
    names = root_names()
    for module, tree in src_modules().items():
        found, module_names = scan_module(module, tree)
        definitions += found
        names |= module_names
    return unreached(definitions, names, kept)


def test_every_definition_in_src_is_reachable():
    dead = [f"{d.key} (line {d.line})" for d in dead_definitions(read_allowlist())]
    assert not dead, (
        "nothing outside tests/ refers to these; delete them (and the tests "
        "that only exercise them) or list them in "
        f"{ALLOWLIST.name} with a reason:\n  " + "\n  ".join(dead)
    )


def test_allowlist_entries_are_justified_and_still_dead():
    allowed = read_allowlist()
    dead = {d.key for d in dead_definitions()}
    assert all(allowed.values()), [k for k, why in allowed.items() if not why]
    stale = sorted(set(allowed) - dead)
    assert not stale, f"reachable now, or gone; drop from {ALLOWLIST.name}: {stale}"


def test_guard_finds_helpers_only_tests_or_nothing_call():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def uncalled():\n    return used()\n\n"
        "def tested_only():\n    return 2\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return helper()\n"
        "    def stale(self):\n        return 3\n\n"
        "def helper():\n    return 0\n\n"
        "VALUE = used() + len(Box())\n"
    )
    definitions, names = scan_module("pkg", tree)
    test_code = ast.parse("from pkg import tested_only\nassert tested_only() == 2\n")
    assert "tested_only" in names_in([test_code], strings=True)  # not a root
    assert [d.key for d in unreached(definitions, names)] == [
        "pkg:uncalled", "pkg:tested_only", "pkg:Box.stale"
    ]
