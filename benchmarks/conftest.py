"""Shared fixtures for the benchmark harness.

``test_bench_tables.py`` regenerates every table of
:data:`repro.experiments.tables.TABLES`: it saves the rendered table to
``benchmarks/results/<file>.txt`` and asserts the table's claims (the
paper's qualitative shape: who wins, where curves turn).

Set ``REPRO_PAPER_SCALE=1`` to run on the full 10,000-router topology and
``REPRO_BENCH_RUNS`` to set the repetition count each table derives its
own from (default 30; the paper uses 100 runs for Figures 5/6).  Both
knobs are recorded into every saved result — a header line in the
``.txt`` table and ``extra_info`` keys in the pytest-benchmark JSON — so
two result files are never compared without knowing the scale they ran
at.
"""

import os
import pathlib

import pytest

# the claims are plain asserts in src/; rewrite them so a failure shows
# the values compared
pytest.register_assert_rewrite("repro.experiments.tables")

from repro.experiments.common import ExperimentEnv  # noqa: E402
from repro.experiments.tables import DEFAULT_RUNS  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def bench_runs() -> int:
    """The repetition count every table derives its own from."""
    return int(os.environ.get("REPRO_BENCH_RUNS", DEFAULT_RUNS))


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "") == "1"


@pytest.fixture(autouse=True)
def record_bench_config(request):
    """Stamp the env knobs into pytest-benchmark's ``extra_info``.

    Applies only to tests that actually use the ``benchmark`` fixture;
    runs before the test body so the keys survive even when the
    benchmark itself fails its shape assertion.
    """
    if "benchmark" in request.fixturenames:
        benchmark = request.getfixturevalue("benchmark")
        benchmark.extra_info["repro_bench_runs"] = bench_runs()
        benchmark.extra_info["repro_paper_scale"] = paper_scale()
    yield


@pytest.fixture(scope="session")
def env128():
    """The paper's subscriber population over the shared topology."""
    return ExperimentEnv(n_hosts=128, seed=0, paper_scale=paper_scale())
