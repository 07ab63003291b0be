"""Runtime import guard: nothing a run, the service or ``repro check``
executes imports scipy or numpy.

scipy and numpy are test-only dependencies (the routing, audit and
statistics oracles use them); the runtime needs the standard library
alone.  A fresh process drives each runtime surface once and reports the
scipy and numpy modules it loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FRESH = r"""
import asyncio, contextlib, io, json, random, sys
sys.path.insert(0, sys.argv[1])
from repro.cli import main
from repro.experiments.common import ExperimentEnv
from repro.runtime.service import run_self_test
from repro.workloads.zipf import zipf_membership

env = ExperimentEnv(n_hosts=16, seed=0)
membership = env.membership_from(zipf_membership(16, 4, random.Random(0)))
fabric = env.build_fabric(membership, seed=0, trace=False)
sent = env.run_one_message_per_membership(fabric, isolate=True)
failures = asyncio.run(run_self_test(n_hosts=4))
with contextlib.redirect_stdout(io.StringIO()):
    check = main(["check", "--format", "json"])
def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
print(json.dumps({
    "sent": sent, "failures": failures, "check": check,
    "scipy": loaded("scipy"), "numpy": loaded("numpy"),
}))
"""


def test_runtime_surfaces_never_import_scipy():
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["sent"] > 0 and report["failures"] == [] and report["check"] == 0
    assert report["scipy"] == []
    assert report["numpy"] == []
