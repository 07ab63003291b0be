"""Static analysis for the reproduction: determinism linting and
sequencing-graph invariant verification.

Two analyzers share one finding model and one entry point:

* :mod:`repro.check.simlint` — AST rules (``SL1xx``) enforcing
  simulation purity: no wall-clock reads, no global-RNG draws, no float
  timestamp equality, no mutable defaults, no bare ``except``, no
  unordered iteration into order-sensitive sinks.
* :mod:`repro.check.graph_verify` — independent re-proof (``GV2xx``) of
  the paper's C1 (single path per group) and C2 (loop-free) invariants,
  plus ingress uniqueness, membership consistency, and placement
  co-location consistency, from a live graph or an exported JSON
  certificate.

Three further analyzers audit *behaviour* rather than code or graphs:

* :mod:`repro.check.invariants` — re-checks a finished simulation's
  delivery logs (``RT3xx``): per-group total order, exactly-once,
  quiescence, publisher FIFO, mutual consistency, causal order, and
  stability.  Used by the fault-injection campaigns in
  :mod:`repro.faults` and the ``repro chaos`` CLI.
* :mod:`repro.check.churn` — cross-epoch invariants (``RT32x``) for
  online epoch-fenced reconfiguration: counter continuity over the
  fence, exactly-once across epochs, fence completeness, joiner clean
  prefixes, and leaver drains.  Used by ``repro chaos --churn``.
* :mod:`repro.check.explore` — a schedule-space model checker
  (``MC4xx``): drives the protocol over a controller-chosen delivery
  order (:mod:`repro.runtime.explore_backend`) and enumerates every
  reduced interleaving of a small configuration, checking safety
  invariants at each terminal state.  Run with ``repro explore`` or
  ``repro check --explore``.
* :mod:`repro.check.asynclint` — asyncio-concurrency lint rules
  (``SL110``-``SL114``) scoped to ``repro.runtime``.  Run with
  ``repro check --async-lint``.

Run the static analyzers with ``repro check`` (see
:mod:`repro.check.runner`); the rule catalog lives in
``docs/STATIC_ANALYSIS.md`` and the runtime invariants in
``docs/FAULTS.md``.
"""

from repro.check.churn import EpochLog, collect_epoch_log, verify_churn
from repro.check.findings import (
    CheckReport,
    Finding,
    render_json,
    render_text,
    sort_findings,
)
from repro.check.graph_verify import (
    CERTIFICATE_FORMAT,
    load_certificate,
    verify_certificate,
    verify_graph,
)
from repro.check.explore import (
    ExploreConfig,
    ExploreResult,
    explore,
    replay_schedule,
    run_explore_check,
)
from repro.check.invariants import (
    DeliveredEntry,
    Delivery,
    PublishedEntry,
    RunView,
    as_run_view,
    fabric_view,
    verify_run,
)
from repro.check.runner import run_check
from repro.check.simlint import RULES, lint_path, lint_source

__all__ = [
    "CERTIFICATE_FORMAT",
    "CheckReport",
    "DeliveredEntry",
    "Delivery",
    "EpochLog",
    "ExploreConfig",
    "ExploreResult",
    "Finding",
    "PublishedEntry",
    "RULES",
    "RunView",
    "as_run_view",
    "collect_epoch_log",
    "explore",
    "fabric_view",
    "lint_path",
    "lint_source",
    "load_certificate",
    "render_json",
    "render_text",
    "replay_schedule",
    "run_check",
    "run_explore_check",
    "sort_findings",
    "verify_certificate",
    "verify_churn",
    "verify_graph",
    "verify_run",
]
