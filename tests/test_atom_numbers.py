"""Atoms as numbers: what a stamp carries, and what it still reads as.

Stamps, forwarding tables and receivers carry ``AtomId.number``; an
``AtomId`` is what they read as at the edges (construction from pairs,
``atom_seqs``, labels, pickles).  The golden was recorded on the commit
before stamps held numbers: the edge form of every stamp the golden burst
delivers may not change.  The guards count calls, never clocks.
"""

import hashlib
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.core import delivery
from repro.core.messages import (
    ATOM_ENTRY_BYTES,
    HEADER_BYTES,
    AtomId,
    Message,
    Stamp,
)
from repro.experiments.common import ExperimentEnv
from tests.conftest import golden_snapshot
from tests.test_hot_path_goldens import burst_run

ROOT = Path(__file__).resolve().parent.parent


def stamp_digest(fabric) -> str:
    """sha256 over every host's delivered stamps in edge form: group,
    group-local number, then each atom's label and number."""
    digest = hashlib.sha256()
    for host_id in sorted(fabric.host_processes):
        digest.update(f"h{host_id}:".encode())
        for record in fabric.delivered(host_id):
            stamp = record.stamp
            entries = ",".join(f"{atom!r}={seq}" for atom, seq in stamp.atom_seqs)
            digest.update(f"{stamp.group}.{stamp.group_seq}[{entries}];".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_burst():
    return burst_run()


def test_delivered_stamps_read_the_same_at_the_edge(golden_burst):
    assert stamp_digest(golden_burst) == (
        "4674b031bbc6f21cad52fd162171a1e187dacd6808831b18b89c1cdd3f3d4e5a"
    )


def test_a_stamp_built_on_the_hot_path_equals_one_built_from_pairs():
    q1, q2 = AtomId.overlap(0, 1), AtomId.overlap(0, 2)
    message = Message(1, 0, 2)
    message.assign_group_seq(3)
    message.add_seq(q1.number, 5)
    message.add_atom_seq(AtomId("overlap", (0, 2)), 6)
    hot = message.stamp()
    pairs = Stamp(0, 3, ((q1, 5), (q2, 6)))
    assert hot == pairs and hash(hot) == hash(pairs)
    assert repr(hot) == repr(pairs) == (
        "Stamp(group=0, group_seq=3, atom_seqs=((Q(0,1), 5), (Q(0,2), 6)))"
    )
    assert hot.size_bytes() == pairs.size_bytes() == HEADER_BYTES + 2 * ATOM_ENTRY_BYTES
    assert hot.atom_seqs == pairs.atom_seqs == message.atom_seqs == ((q1, 5), (q2, 6))
    assert hot.seq_of(q2) == 6 and hot.seq_of(AtomId.overlap(1, 2)) is None
    assert hot != Stamp(0, 3, ((q1, 5),)) and hot != (0, 3, hot.atoms, hot.seqs)
    with pytest.raises(ValueError, match="already stamped"):
        message.add_seq(q2.number, 7)
    with pytest.raises(FrozenInstanceError):
        hot.group_seq = 4  # type: ignore[misc]


_FRESH = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from repro.core.messages import AtomId
for group in range(40, 60):  # atoms of its own first: other numbers here
    AtomId.ingress(group)
stamp, log = pickle.loads(sys.stdin.buffer.read())
print(repr(stamp.atom_seqs))
print(repr([record.stamp.atom_seqs for record in log]))
"""


def test_a_stamp_and_a_log_unpickle_in_a_fresh_process(golden_burst):
    """Numbers are this process's own: what travels is the edge form."""
    log = max(
        (process.delivered for process in golden_burst.host_processes.values()),
        key=len,
    )
    stamp = max((record.stamp for record in log), key=lambda s: len(s.atoms))
    assert len(stamp.atoms) >= 4
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, str(ROOT / "src")],
        input=pickle.dumps((stamp, log)), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    lines = done.stdout.decode().splitlines()
    assert lines == [
        repr(stamp.atom_seqs),
        repr([record.stamp.atom_seqs for record in log]),
    ]


def golden_fabric(trace: bool):
    env = ExperimentEnv(n_hosts=32, seed=0)
    return env.build_fabric(
        env.membership_from(golden_snapshot()), seed=3, trace=trace
    )


def publish_burst(fabric, messages: int, seed: int) -> None:
    rng = random.Random(seed)
    groups = sorted(fabric.membership.groups())
    for _ in range(messages):
        group = rng.choice(groups)
        fabric.publish(rng.choice(sorted(fabric.membership.members(group))), group)
    fabric.run()


def test_a_warmed_untraced_fabric_hashes_and_compares_no_atom(monkeypatch):
    fabric = golden_fabric(trace=False)
    publish_burst(fabric, 200, seed=4)  # layouts, routes, delivery trees
    calls = [0]
    hash_of, equal = AtomId.__hash__, AtomId.__eq__

    def counted_hash(self):
        calls[0] += 1
        return hash_of(self)

    def counted_eq(self, other):
        calls[0] += 1
        return equal(self, other)

    monkeypatch.setattr(AtomId, "__hash__", counted_hash)
    monkeypatch.setattr(AtomId, "__eq__", counted_eq)
    delivered = fabric.trace.count("deliver")
    publish_burst(fabric, 300, seed=5)
    assert fabric.trace.count("deliver") - delivered > 2000
    assert calls[0] == 0
    # The counters count: two hashes and an equality for one dict probe.
    assert {AtomId.overlap(0, 1): 1}[AtomId("overlap", (0, 1))] == 1
    assert calls[0] == 3


@pytest.fixture()
def blocking_constructions(monkeypatch):
    """Counts ``Blocking(...)`` calls for the duration of a test."""
    calls = [0]
    construct = delivery.Blocking.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(delivery.Blocking, "__new__", counted)
    return calls


def buffer_records(fabric):
    return [record.data for record in fabric.trace.select(kind="buffer")]


def test_an_untraced_burst_names_no_gap(blocking_constructions):
    """The golden burst buffers 1073 arrivals; with tracing off
    not one of them is explained."""
    fabric = burst_run()
    assert max(
        p.delivery.buffered_high_water for p in fabric.host_processes.values()
    ) == 82
    assert blocking_constructions[0] == 0


def test_buffer_records_follow_the_trace_switch(blocking_constructions):
    """Switched after construction, tracing records or omits what it
    does when set at construction: one gap named per buffered arrival."""
    traced = golden_fabric(trace=True)
    publish_burst(traced, 300, seed=11)
    recorded = buffer_records(traced)
    assert len(recorded) == blocking_constructions[0] > 1000

    switched_on = golden_fabric(trace=False)
    switched_on.trace.enabled = True
    publish_burst(switched_on, 300, seed=11)
    assert buffer_records(switched_on) == recorded

    switched_off = golden_fabric(trace=True)
    switched_off.trace.enabled = False
    made = blocking_constructions[0]
    publish_burst(switched_off, 300, seed=11)
    assert blocking_constructions[0] == made
    assert buffer_records(switched_off) == []
