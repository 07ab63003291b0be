"""One ``atom_pass`` record per run of pass-through atoms.

A sequencing node runs a message through all of its co-located atoms at
one instant, and writes one ``atom_seq`` per stamping atom and one
``atom_pass`` per maximal run of consecutive pass-through atoms (its first
atom and its length).  The oracle here logs every atom's decision through
the ``AtomRuntime.process`` instance seam, and every node visit through
``process_at``; the records must be exactly what those decisions imply.

An export written when every pass-through atom had a record of its own
(no ``atoms`` field) must still load and give the same journeys.
"""

import hashlib
import random
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentEnv
from repro.faults.plan import CrashNode, FaultPlan
from repro.obs.exporters import trace_from_jsonl
from repro.obs.forensics import AtomEvent, JourneyIndex, Visit, render_journey
from repro.obs.live.top import read_trace_jsonl
from tests.test_observation_goldens import visits_sha256

FIXTURE = Path(__file__).resolve().parent / "data" / "parent_trace_h32_g12_e30.jsonl"

HOSTS = 16
_ENV: List[ExperimentEnv] = []


def env() -> ExperimentEnv:
    if not _ENV:
        _ENV.append(ExperimentEnv(n_hosts=HOSTS, seed=0))
    return _ENV[0]


class Oracle:
    """Every node visit and atom decision, in the order they happened."""

    def __init__(self, fabric: Any):
        #: msg -> [("visit", node, time) | ("seq"/"pass", node, atom, seq, group_seq)]
        self.steps: Dict[int, List[Tuple[Any, ...]]] = {}
        self.distributed: Dict[int, float] = {}
        for process in fabric.node_processes.values():
            self._watch_visits(fabric, process)
            for runtime in process.atom_runtimes.values():
                self._watch_atom(process, runtime)
        distribute = fabric._distribute

        def watched_distribute(node: Any, message: Any) -> None:
            self.distributed[message.msg_id] = fabric.sim.now
            distribute(node, message)

        fabric._distribute = watched_distribute

    def _watch_visits(self, fabric: Any, process: Any) -> None:
        process_at = process.process_at

        def watched(atom: int, message: Any) -> None:
            self.steps.setdefault(message.msg_id, []).append(
                ("visit", process.node_id, fabric.sim.now)
            )
            process_at(atom, message)

        process.process_at = watched

    def _watch_atom(self, process: Any, runtime: Any) -> None:
        original = runtime.process

        def watched(message: Any) -> Any:
            group_seq_before = message.group_seq
            stamped_before = len(message.seqs)
            next_atom = original(message)
            seq = message.seqs[-1] if len(message.seqs) > stamped_before else None
            group_seq = message.group_seq if group_seq_before is None else None
            action = "pass" if seq is None and group_seq is None else "seq"
            self.steps[message.msg_id].append(
                (action, process.node_id, runtime.atom_id.label, seq, group_seq)
            )
            return next_atom

        runtime.process = watched

    def records(self, msg_id: int) -> List[Tuple[Any, ...]]:
        """The atom records the decisions imply: ``("atom_seq", node, atom,
        seq, group_seq)`` per stamp, ``("atom_pass", node, first atom,
        length)`` per maximal pass-through run of one visit."""
        out: List[Tuple[Any, ...]] = []
        run_open = False
        for step in self.steps.get(msg_id, []):
            if step[0] == "visit":
                run_open = False
            elif step[0] == "seq":
                run_open = False
                out.append(("atom_seq",) + step[1:])
            elif run_open:
                kind, node, atom, length = out[-1]
                out[-1] = (kind, node, atom, length + 1)
            else:
                out.append(("atom_pass", step[1], step[2], 1))
                run_open = True
        return out

    def decisions(self, msg_id: int) -> List[Tuple[Any, ...]]:
        """``(action, node)`` per atom, in path order."""
        return [s[:2] for s in self.steps.get(msg_id, []) if s[0] != "visit"]

    def visits(self, msg_id: int, records: int) -> List[Visit]:
        """What :meth:`Journey.visits` should say: one visit per node the
        message entered, at its entry atom, until the next visit starts,
        distribution, or (undistributed) the last atom record's time."""
        starts: List[Tuple[int, str, float]] = []
        steps = self.steps.get(msg_id, [])
        for i, step in enumerate(steps):
            if step[0] == "visit" and i + 1 < len(steps) and steps[i + 1][0] != "visit":
                starts.append((step[1], steps[i + 1][2], step[2]))
        if not starts or not records:
            return []
        ends = [start for _, _, start in starts[1:]]
        ends.append(self.distributed.get(msg_id, starts[-1][2]))
        return [Visit(node, atom, start, end) for (node, atom, start), end in zip(starts, ends)]


def atom_records(trace: Any) -> Dict[int, List[Tuple[Any, ...]]]:
    by_msg: Dict[int, List[Tuple[Any, ...]]] = {}
    for record in trace:
        data = record.data
        if record.kind == "atom_seq":
            row: Tuple[Any, ...] = (
                "atom_seq", data["node"], data["atom"], data["seq"], data["group_seq"]
            )
        elif record.kind == "atom_pass":
            row = ("atom_pass", data["node"], data["atom"], data["atoms"])
        else:
            continue
        by_msg.setdefault(data["msg"], []).append(row)
    return by_msg


def expanded(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """``(action, node)`` per atom the records stand for."""
    out: List[Tuple[Any, ...]] = []
    for row in rows:
        if row[0] == "atom_pass":
            out.extend([("pass", row[1])] * row[3])
        else:
            out.append(("seq", row[1]))
    return out


def assert_runs_match_the_oracle(fabric: Any, oracle: Oracle) -> int:
    """Returns the longest run seen."""
    by_msg = atom_records(fabric.trace)
    assert set(by_msg) <= set(oracle.steps)
    index = JourneyIndex(fabric.trace)
    longest = 0
    for msg_id in oracle.steps:
        rows = by_msg.get(msg_id, [])
        # Expanding every run gives back each atom's decision, in order.
        assert expanded(rows) == oracle.decisions(msg_id)
        # Runs are maximal: no two adjacent records at one node both pass.
        for before, after in zip(rows, rows[1:]):
            assert not (
                before[0] == after[0] == "atom_pass" and before[1] == after[1]
            ), ("not maximal", msg_id, rows)
        # The stamps are the oracle's, and so is every run (first atom, length).
        assert rows == oracle.records(msg_id)
        longest = max([longest] + [row[3] for row in rows if row[0] == "atom_pass"])
        journey = index.journey(msg_id)
        if journey is not None:
            assert journey.visits() == oracle.visits(msg_id, len(rows))
            assert [e.atoms for e in journey.atom_events] == [
                row[3] if row[0] == "atom_pass" else 1 for row in rows
            ]
    return longest


def traced_run(
    snapshot: Dict[int, frozenset], messages: int, loss: float, crash: bool, seed: int
) -> Tuple[Any, Oracle]:
    base = env()
    kwargs: Dict[str, Any] = {"trace": True, "loss_rate": loss}
    if crash:
        kwargs["retransmit_timeout"] = 5.0
    fabric = base.build_fabric(base.membership_from(snapshot), seed=seed, **kwargs)
    oracle = Oracle(fabric)
    rng = random.Random(seed)
    groups = sorted(fabric.membership.groups())
    for _ in range(messages):
        group = rng.choice(groups)
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.sim.schedule_at(40.0 * rng.random(), fabric.publish, sender, group)
    if crash:
        node = max(
            fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
        )
        FaultPlan().add(CrashNode(at=10.0, node_id=node.node_id)).apply(fabric)
        target = (node.machine + 1) % fabric.topology.n_nodes
        fabric.sim.schedule_at(25.0, fabric.relocate_node, node.node_id, target)
    fabric.run()
    return fabric, oracle


memberships = st.dictionaries(
    st.integers(0, 7),
    st.frozensets(st.integers(0, HOSTS - 1), min_size=2, max_size=9),
    min_size=2,
    max_size=7,
)


@settings(max_examples=40, deadline=None)
@given(
    snapshot=memberships,
    messages=st.integers(1, 25),
    loss=st.sampled_from([0.0, 0.0, 0.05]),
    seed=st.integers(0, 2**16),
)
def test_records_are_the_runs_the_atom_decisions_imply(snapshot, messages, loss, seed):
    fabric, oracle = traced_run(snapshot, messages, loss, crash=False, seed=seed)
    assert_runs_match_the_oracle(fabric, oracle)


def test_runs_across_a_crash_and_relocation():
    snapshot = {
        g: frozenset(random.Random(g).sample(range(HOSTS), 6)) for g in range(7)
    }
    fabric, oracle = traced_run(snapshot, 60, 0.0, crash=True, seed=4)
    assert fabric.failovers and fabric.trace.count("retransmit")
    assert assert_runs_match_the_oracle(fabric, oracle) > 1


def test_some_generated_run_is_longer_than_one_atom():
    """The property above is not vacuous: this topology has long runs."""
    snapshot = {
        g: frozenset(random.Random(100 + g).sample(range(HOSTS), 7)) for g in range(8)
    }
    fabric, oracle = traced_run(snapshot, 40, 0.0, crash=False, seed=1)
    assert assert_runs_match_the_oracle(fabric, oracle) > 1


# ---------------------------------------------------------------------------
# An export written with one ``atom_pass`` per atom
# ---------------------------------------------------------------------------

#: recorded from ``repro trace run --hosts 32 --groups 12 --events 30``
#: when every pass-through atom had a record of its own (some of its runs
#: are three atoms long): the journeys' ``render_journey`` text, joined by
#: blank lines in message order, and their visits
PARENT_RENDER_SHA = "fb3485227ad7e86f4ab98ec76d21e81989504226e88dfda8ad693901af9fa412"
PARENT_VISITS_SHA = "3f2c76dfb21c13dfac7433318fbfb8f0e235b666f3ed81962accdf66a60432a3"


def test_an_export_with_one_record_per_atom_still_reads():
    text = FIXTURE.read_text()
    records = trace_from_jsonl(text)
    assert records == read_trace_jsonl(str(FIXTURE))
    passes = [r for r in records if r.kind == "atom_pass"]
    assert passes and all("atoms" not in r.data for r in passes)
    index = JourneyIndex(records)
    events = [e for j in index.journeys.values() for e in j.atom_events]
    assert events and all(e.atoms == 1 for e in events)
    assert visits_sha256(records) == PARENT_VISITS_SHA
    rendered = "\n\n".join(
        render_journey(journey) for _, journey in sorted(index.journeys.items())
    )
    assert hashlib.sha256(rendered.encode()).hexdigest() == PARENT_RENDER_SHA
    # Some message passed through consecutive atoms of one node there.
    assert any(
        len(merged_runs(j.atom_events)) < len(j.atom_events)
        for j in index.journeys.values()
    )


def merged_runs(events: List[AtomEvent]) -> List[AtomEvent]:
    """Adjacent pass-through events at one node merged into one run, as the
    fabric records them now."""
    merged: List[AtomEvent] = []
    for event in events:
        last = merged[-1] if merged else None
        if last and last.action == event.action == "pass" and last.node == event.node:
            merged[-1] = replace(last, atoms=last.atoms + event.atoms)
        else:
            merged.append(event)
    return merged


def test_a_run_renders_as_one_line():
    index = JourneyIndex(trace_from_jsonl(FIXTURE.read_text()))
    journey = next(
        j
        for _, j in sorted(index.journeys.items())
        if len(merged_runs(j.atom_events)) < len(j.atom_events)
    )
    merged = journey.atom_events = merged_runs(journey.atom_events)
    lines = render_journey(journey).splitlines()
    runs = [e for e in merged if e.atoms > 1]
    assert runs
    for event in runs:
        assert any(
            f"pass-through ×{event.atoms} from {event.atom}" in line for line in lines
        )
    assert journey.to_dict()["atom_events"][merged.index(runs[0])]["atoms"] == runs[0].atoms
