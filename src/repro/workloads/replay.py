"""Recordable, replayable workloads.

A :class:`WorkloadTrace` bundles a membership snapshot with a publish
schedule.  Traces serialize to a small JSON format, so an experiment's
exact workload can be archived, diffed, and replayed against any fabric —
the paper's protocol or any baseline — for apples-to-apples comparisons.

Build traces from the scenario generators::

    from repro.workloads import GameWorld
    from repro.workloads.replay import WorkloadTrace

    world = GameWorld(n_players=24)
    trace = WorkloadTrace.from_schedule(
        world.membership(), world.publish_schedule(100)
    )
    trace.save("game.workload.json")

and replay them::

    trace = WorkloadTrace.load("game.workload.json")
    env = ExperimentEnv(n_hosts=trace.n_hosts())
    fabric = env.build_fabric(env.membership_from(trace.membership))
    trace.replay(fabric)
"""

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Union

from repro.workloads.scenarios import PublishEvent

PathLike = Union[str, pathlib.Path]

FORMAT_VERSION = 1


@dataclass
class WorkloadTrace:
    """A membership snapshot plus an ordered publish schedule."""

    membership: Dict[int, FrozenSet[int]]
    events: List[PublishEvent] = field(default_factory=list)
    name: str = ""

    # -- construction -----------------------------------------------------

    @classmethod
    def from_schedule(
        cls,
        membership: Dict[int, FrozenSet[int]],
        events: List[PublishEvent],
        name: str = "",
    ) -> "WorkloadTrace":
        """Bundle a generated membership and schedule into a trace."""
        return cls(
            membership={g: frozenset(m) for g, m in membership.items()},
            events=list(events),
            name=name,
        )

    def validate(self) -> None:
        """Check internal consistency (senders exist, groups exist)."""
        for index, event in enumerate(self.events):
            if event.group not in self.membership:
                raise ValueError(
                    f"event {index} targets unknown group {event.group}"
                )
            if event.sender not in self.membership[event.group]:
                raise ValueError(
                    f"event {index}: sender {event.sender} is not a member "
                    f"of group {event.group} (causal sends require it)"
                )

    def n_hosts(self) -> int:
        """Smallest host population that can run this trace."""
        members = {m for group in self.membership.values() for m in group}
        return (max(members) + 1) if members else 0

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to the versioned JSON format."""
        payload = {
            "version": FORMAT_VERSION,
            "name": self.name,
            "membership": {
                str(group): sorted(members)
                for group, members in self.membership.items()
            },
            "events": [
                {"sender": e.sender, "group": e.group, "payload": e.payload}
                for e in self.events
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Parse the JSON format; rejects unknown versions."""
        payload = json.loads(text)
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported workload format version {version!r}")
        membership = {
            int(group): frozenset(members)
            for group, members in payload["membership"].items()
        }
        events = [
            PublishEvent(
                sender=e["sender"], group=e["group"], payload=e.get("payload")
            )
            for e in payload["events"]
        ]
        return cls(membership=membership, events=events, name=payload.get("name", ""))

    def save(self, path: PathLike) -> pathlib.Path:
        """Write the trace to ``path``; returns the resolved path."""
        resolved = pathlib.Path(path)
        resolved.parent.mkdir(parents=True, exist_ok=True)
        resolved.write_text(self.to_json())
        return resolved

    @classmethod
    def load(cls, path: PathLike) -> "WorkloadTrace":
        """Read a trace from disk."""
        return cls.from_json(pathlib.Path(path).read_text())

    # -- replay ----------------------------------------------------------------

    def replay(
        self,
        fabric: Any,
        run_between: bool = False,
        limit: Optional[int] = None,
    ) -> int:
        """Publish the schedule into any fabric exposing ``publish``/``run``.

        ``run_between`` quiesces after each publish (isolated-latency
        methodology); otherwise all events are injected at once and a
        single ``run()`` drains them.  Returns the number of events
        published.
        """
        count = 0
        for event in self.events[: limit if limit is not None else len(self.events)]:
            fabric.publish(event.sender, event.group, event.payload)
            count += 1
            if run_between:
                fabric.run()
        fabric.run()
        return count
