"""Every table of the evaluation, one benchmark each: Figures 3–8 and the
A1–A9 ablations of :data:`repro.experiments.tables.TABLES`.

Each benchmark runs its table once, saves it under the config header to
``results/<file>.txt`` and asserts the table's claims.
"""

import pytest
from conftest import RESULTS_DIR, bench_runs, paper_scale

from repro.experiments.tables import TABLES, saved_text


@pytest.mark.parametrize("name", list(TABLES))
def test_table(name, benchmark, env128):
    table = TABLES[name]
    runs = bench_runs()
    results = benchmark.pedantic(
        table.run, args=(env128, runs), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{table.file}.txt").write_text(
        saved_text(table, results, runs, paper_scale())
    )
    table.claims(results, env128)
