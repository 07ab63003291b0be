"""Structured analysis of a sequencing graph (and optional placement).

``analyze(graph, placement, membership)`` computes everything a person
debugging a deployment would want to know: how big the sequencing network
is, how long each group's path is and how much of it is pass-through
overhead, how well co-location worked, and whether the paper's
theoretical claims hold on this instance.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.placement import Placement
from repro.core.sequencing_graph import SequencingGraph
from repro.metrics.stress import node_stress
from repro.pubsub.membership import GroupMembership


@dataclass
class GroupProfile:
    """Per-group sequencing-path statistics."""

    group: int
    members: int
    own_atoms: int
    path_atoms: int
    pass_through_atoms: int
    machine_hops: Optional[int] = None


@dataclass
class GraphReport:
    """Everything :func:`analyze` computes."""

    groups: int
    overlap_atoms: int
    retired_atoms: int
    ingress_only_atoms: int
    chains: int
    longest_chain: int
    group_profiles: List[GroupProfile] = field(default_factory=list)
    sequencing_nodes: Optional[int] = None
    mean_stress: Optional[float] = None
    max_stamp_entries: int = 0
    #: paper bound: per-group stamp entries <= groups - 1
    stamp_bound_holds: bool = True

    def summary_lines(self) -> List[str]:
        """Human-readable multi-line summary."""
        lines = [
            f"groups:            {self.groups}",
            f"overlap atoms:     {self.overlap_atoms} "
            f"(+{self.retired_atoms} retired, "
            f"{self.ingress_only_atoms} ingress-only)",
            f"chains:            {self.chains} (longest {self.longest_chain})",
            f"max stamp entries: {self.max_stamp_entries} "
            f"(bound holds: {self.stamp_bound_holds})",
        ]
        if self.sequencing_nodes is not None:
            lines.append(f"sequencing nodes:  {self.sequencing_nodes}")
        if self.mean_stress is not None:
            lines.append(f"mean node stress:  {self.mean_stress:.3f}")
        if self.group_profiles:
            worst = max(self.group_profiles, key=lambda p: p.path_atoms)
            lines.append(
                f"longest group path: group {worst.group} "
                f"({worst.path_atoms} atoms, "
                f"{worst.pass_through_atoms} pass-through)"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())


def analyze(
    graph: SequencingGraph,
    placement: Optional[Placement] = None,
    membership: Optional[GroupMembership] = None,
) -> GraphReport:
    """Compute a :class:`GraphReport` for a graph (+ optional placement)."""
    overlap_atoms = graph.overlap_atoms()
    ingress_only = [a for a in graph.atoms if a.is_ingress_only]
    profiles: List[GroupProfile] = []
    max_entries = 0
    for group in graph.groups():
        path = graph.group_path(group)
        own = graph.atoms_of_group(group)
        max_entries = max(max_entries, len(own))
        machine_hops = None
        if placement is not None:
            machines: List[int] = []
            for atom in path:
                node = placement.node_of(atom)
                if not machines or machines[-1] != node.node_id:
                    machines.append(node.node_id)
            machine_hops = len(machines)
        members = (
            len(membership.members(group))
            if membership is not None and membership.has_group(group)
            else len(graph.members(group))
        )
        profiles.append(
            GroupProfile(
                group=group,
                members=members,
                own_atoms=len(own),
                path_atoms=len(path),
                pass_through_atoms=len(graph.pass_through_atoms(group)),
                machine_hops=machine_hops,
            )
        )

    report = GraphReport(
        groups=len(graph.groups()),
        overlap_atoms=len(overlap_atoms),
        retired_atoms=len(graph.retired),
        ingress_only_atoms=len(ingress_only),
        chains=len(graph.chains),
        longest_chain=max((len(c) for c in graph.chains), default=0),
        group_profiles=profiles,
        max_stamp_entries=max_entries,
        stamp_bound_holds=max_entries <= max(0, len(graph.groups()) - 1),
    )
    if placement is not None:
        report.sequencing_nodes = len(
            placement.sequencing_nodes(include_ingress_only=False)
        )
        stresses = node_stress(graph, placement)
        if stresses:
            report.mean_stress = sum(stresses) / len(stresses)
    return report
