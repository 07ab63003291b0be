"""Goldens and seams of the publish -> delivered path.

The golden values were recorded on the commit before the hot path was
rewritten (indexed hold-back, cached stamp layout, tuple-keyed event heap,
one record per delivery) and verified to pass against that commit's
``src``: a rewrite of this path may change how a delivery is decided and
stored, never which delivery happens when, nor a byte of a report.

The seam tests pin the call-time lookups other tools rely on: the model
checker's mutation harness patches ``fabric._transmit``,
``AtomRuntime.process`` and ``DeliveryState.on_receive`` on instances, and
``bench/spans.py`` patches its entry points on classes.
"""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.core.delivery_log import MessageHeader
from repro.experiments.common import ExperimentEnv
from repro.runtime.explore_backend import ExploreTransport
from tests.conftest import golden_snapshot

ROOT = Path(__file__).resolve().parent.parent

#: every kind the fabric and its processes record
TRACE_KINDS = (
    "publish", "deliver", "distribute", "atom_seq", "atom_pass",
    "buffer", "drain", "retransmit", "link_failure", "failover", "epoch_fence",
)


def burst_run(runtime=None, messages=300):
    """A fixed-seed burst (every publish at one instant), tracing off,
    then one epoch fence per group, run to quiescence.

    On an environment of its own: the shared one's routing table answers
    in a different last bit depending on which rows earlier tests filled,
    and delivery times are part of the digest.
    """
    env = ExperimentEnv(n_hosts=32, seed=0)
    fabric = env.build_fabric(
        env.membership_from(golden_snapshot()), seed=3, trace=False, runtime=runtime
    )
    rng = random.Random(11)
    groups = sorted(fabric.membership.groups())
    for _ in range(messages):
        group = rng.choice(groups)
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    fabric.inject_epoch_fences(1)
    fabric.run()
    assert fabric.pending_messages() == {}
    return fabric


def delivered_digest(fabric):
    """sha256 over every host's delivered sequence, with delivery times."""
    digest = hashlib.sha256()
    for host_id in sorted(fabric.host_processes):
        digest.update(f"h{host_id}:".encode())
        digest.update(
            ",".join(
                f"{r.msg_id}@{r.time!r}" for r in fabric.delivered(host_id)
            ).encode()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def sim_burst():
    return burst_run()


def test_sim_backend_delivered_sequences_unchanged(sim_burst):
    assert max(
        p.delivery.buffered_high_water for p in sim_burst.host_processes.values()
    ) == 82
    assert sim_burst.sim.events_executed == 3452
    assert (
        delivered_digest(sim_burst)
        == "48bca2e63b180f1871f2b504f7954eef8efd9215cf856550df30bc467d58f5e9"
    )


def test_explore_backend_delivered_sequences_unchanged():
    fabric = burst_run(runtime=ExploreTransport(seed=3), messages=120)
    assert (
        delivered_digest(fabric)
        == "28985be38a4fb1c1f589ac2911d6edd6dfe72d4060247c978bef7fe584244c27"
    )


def test_certificate_bytes_after_traffic_unchanged(sim_burst):
    blob = json.dumps(sim_burst.export_certificate(), sort_keys=True).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "66a4a5ebce9467510cdb3af8050224dd4ff6a3c4661b28b24755acfe53f0cb88"
    )


def test_distribution_accounting_totals_unchanged(sim_burst):
    """The per-tree unicast link count is summed once per tree now."""
    assert (
        sim_burst.distribution_tree_links,
        sim_burst.distribution_unicast_links,
        sim_burst.distribution_tree_bytes,
    ) == (6640, 15856, 774616)


def test_trace_counts_with_tracing_off_unchanged(sim_burst):
    """``deliver`` is counted (not recorded) while tracing is off; guarded
    high-volume kinds are neither."""
    assert len(sim_burst.trace) == 0
    counts = {kind: sim_burst.trace.count(kind) for kind in TRACE_KINDS}
    assert {kind: n for kind, n in counts.items() if n} == {
        "publish": 300, "deliver": 2452, "epoch_fence": 111,
    }


def test_explain_stalls_report_bytes_unchanged(tmp_path):
    out = tmp_path / "forensics.json"
    assert cli.main(["explain", "--stalls", "--format", "json", "--out", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "c233193516be2ea8350365eae52740ddf0051b6d564630e6a83f2fde598b0437"
    )


# ---------------------------------------------------------------------------
# Seams
# ---------------------------------------------------------------------------


def test_instance_patches_intercept_every_call(env32):
    """What the mutation harness does, as pass-through counters: a patch on
    the instance must see every transmit, every visit of the patched atom,
    every arrival at the patched receiver."""
    fabric = env32.build_fabric(
        env32.membership_from(golden_snapshot()), seed=3, trace=False
    )
    seen = {"transmit": 0, "headers": 0, "process": 0, "on_receive": 0}

    transmit = fabric._transmit

    def patched_transmit(src, dst, packet):
        seen["transmit"] += 1
        seen["headers"] += isinstance(packet, MessageHeader)
        transmit(src, dst, packet)

    fabric._transmit = patched_transmit

    runtime = max(
        (
            runtime
            for process in fabric.node_processes.values()
            for runtime in process.atom_runtimes.values()
        ),
        key=lambda runtime: (len(runtime.next_atom), repr(runtime.atom_id)),
    )
    process = runtime.process

    def patched_process(message):
        seen["process"] += 1
        return process(message)

    runtime.process = patched_process

    groups = sorted(fabric.membership.groups())
    host = fabric.host_processes[min(fabric.membership.members(groups[0]))]
    on_receive = host.delivery.on_receive

    def patched_on_receive(stamp, payload):
        seen["on_receive"] += 1
        return on_receive(stamp, payload)

    host.delivery.on_receive = patched_on_receive

    rng = random.Random(2)
    for _ in range(60):
        group = rng.choice(groups)
        fabric.publish(rng.choice(sorted(fabric.membership.members(group))), group)
    fabric.run()

    assert seen["transmit"] == fabric.network.total_sends() > 0
    # One header transmitted per member of each distributed message.
    assert seen["headers"] == sum(
        len(p.delivered) for p in fabric.host_processes.values()
    )
    assert seen["process"] == runtime.visits > 0
    assert seen["on_receive"] == host.messages_received == len(host.delivered) > 0


#: span name -> calls of ``bench/run.py``'s traced sim_steady run at seed 0,
#: ``--seconds 1``, 1/20 size, recorded on the parent commit
PARENT_SPAN_CALLS = {
    "AtomRuntime.process": 25536, "Channel.send": 19923,
    "DeliveryState.on_receive": 15422, "HostProcess.receive": 15422,
    "OrderingFabric.__init__": 1, "OrderingFabric.inject_epoch_fences": 0,
    "OrderingFabric.publish": 440, "OrderingFabric.run": 392,
    "OrderingService.handle": 0, "RoutingTable.__init__": 1,
    "RoutingTable.delay": 1082, "SequencingGraph.add_group": 0,
    "SequencingGraph.build": 1, "SequencingGraph.remove_group": 0,
    "SequencingGraph.validate": 1, "SequencingNodeProcess.process_at": 4501,
    "SequencingNodeProcess.receive": 4501, "Simulator.step": 19973,
    "Trace.record": 15862, "attach_hosts": 1, "double_overlaps": 1,
    "generate_transit_stub": 1, "place": 1, "pubsub.membership_build": 1,
    "reconfigure": 0, "verify_certificate": 0,
}

_SPAN_COUNTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, spans

calls = {}
aggregate = spans.Tracer.aggregate

def capture(self):
    stats = aggregate(self)
    calls.update({name: entry.calls for name, entry in stats.items()})
    return stats

spans.Tracer.aggregate = capture
outcome = run.run_one("sim_steady", 0, 1.0, trace=True, scale=0.05)
assert outcome.correct, outcome.problems
print(json.dumps(calls))
"""


def test_traced_bench_run_makes_the_same_calls_per_span():
    """Every ``bench/spans.py`` entry point is still entered once per unit
    of work (in a child process: the tracer patches classes)."""
    done = subprocess.run(
        [sys.executable, "-c", _SPAN_COUNTS, str(ROOT / "bench")],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == PARENT_SPAN_CALLS
