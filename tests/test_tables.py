"""The committed tables are what the table registry makes.

Every entry of :data:`repro.experiments.tables.TABLES` runs at the
default config (30 runs, default scale), and the text it saves — config
header included — must equal ``benchmarks/results/<file>.txt`` byte for
byte, and its claims must hold.  The committed files are the goldens: a
change that moves a table fails here until the table is regenerated
(``pytest benchmarks --benchmark-disable``) and the move explained.
"""

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentEnv
from repro.experiments.tables import DEFAULT_RUNS, TABLES, saved_text

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


@pytest.fixture(scope="module")
def env128():
    return ExperimentEnv(n_hosts=128, seed=0)


@pytest.mark.parametrize("name", list(TABLES))
def test_committed_table_is_what_the_registry_makes(name, env128):
    table = TABLES[name]
    results = table.run(env128, DEFAULT_RUNS)
    golden = (RESULTS / f"{table.file}.txt").read_text()
    assert saved_text(table, results, DEFAULT_RUNS, paper_scale=False) == golden
    table.claims(results, env128)


def test_every_results_file_has_one_table():
    assert sorted(f"{t.file}.txt" for t in TABLES.values()) == sorted(
        p.name for p in RESULTS.glob("*.txt")
    )
