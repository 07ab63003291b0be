"""Runtime state of a sequencing atom (paper Section 3.1).

Each sequencing atom maintains:

* a sequence number for its overlapped groups (one counter per atom — the
  overlap's shared sequence space),
* group-local sequence numbers for the groups it acts as ingress for,
* a forwarding table directing messages to the next sequencer per
  destination group,
* a reverse-path table listing the previous sequencer per group,
* output retransmission buffers and a receive buffer (owned by the hosting
  sequencing-node process in :mod:`repro.core.protocol`, since
  retransmission operates per machine channel).
"""

from typing import Dict, Optional

from repro.core.messages import AtomId, Message
from repro.core.sequencing_graph import SequencingGraph


class AtomRuntime:
    """Mutable per-atom protocol state.

    Parameters
    ----------
    atom_id:
        Which atom this state belongs to.
    """

    def __init__(self, atom_id: AtomId, retired: bool = False):
        self.atom_id = atom_id
        #: how stamps and forwarding tables name it
        self.number = atom_id.number
        #: what :meth:`process` asks of the identity on every visit, read
        #: once: an ``AtomId`` is immutable
        self._ingress_only = atom_id.is_ingress_only
        self._groups = atom_id.groups
        #: retired atoms (lazily removed, Section 3.2) stay on chains as
        #: pass-through placeholders and never stamp
        self.retired = retired
        #: shared sequence counter for the atom's overlapped groups
        self.seq_counter = 0
        #: group-local counters for groups this atom ingresses
        self.group_local_counters: Dict[int, int] = {}
        #: forwarding table: destination group -> number of the next atom
        #: on its path (``None`` where the path ends)
        self.next_number: Dict[int, Optional[int]] = {}
        #: reverse-path table: destination group -> previous atom
        self.prev_atom: Dict[int, Optional[AtomId]] = {}
        #: messages stamped (for load accounting)
        self.messages_sequenced = 0
        #: messages forwarded without stamping (pass-through)
        self.messages_passed_through = 0
        #: total messages processed (stamped + passed through)
        self.visits = 0

    def next_overlap_seq(self) -> int:
        """Allocate the next number in the overlap sequence space."""
        self.seq_counter += 1
        return self.seq_counter

    def next_group_local_seq(self, group: int) -> int:
        """Allocate the next group-local number for an ingressed group."""
        seq = self.group_local_counters.get(group, 0) + 1
        self.group_local_counters[group] = seq
        return seq

    @property
    def next_atom(self) -> Dict[int, Optional[AtomId]]:
        """The forwarding table with atoms for numbers (a copy)."""
        return {
            group: None if number is None else AtomId.by_number(number)
            for group, number in self.next_number.items()
        }

    def process(self, message: Message) -> Optional[int]:
        """Sequence or pass through ``message``; return the next atom's
        number.

        The ingress atom (no previous atom for the group) also assigns the
        group-local sequence number.  Atoms associated with the message's
        destination group stamp it from the overlap sequence space; other
        atoms on the path forward it untouched, preserving arrival order.
        """
        group = message.group
        try:
            prev = self.prev_atom[group]
        except KeyError:
            raise KeyError(
                f"atom {self.atom_id} has no forwarding state for group {group}"
            ) from None
        self.visits += 1
        if prev is None and message.group_seq is None:
            message.assign_group_seq(self.next_group_local_seq(group))
        if self.retired:
            # Lazily removed (Section 3.2): forward in arrival order only.
            self.messages_passed_through += 1
        elif self._ingress_only:
            self.messages_sequenced += 1
        elif group in self._groups:
            message.add_seq(self.number, self.next_overlap_seq())
            self.messages_sequenced += 1
        else:
            self.messages_passed_through += 1
        return self.next_number.get(group)

    def __repr__(self) -> str:
        return (
            f"<AtomRuntime {self.atom_id} seq={self.seq_counter} "
            f"groups={sorted(self.next_number)}>"
        )


def build_atom_runtimes(graph: SequencingGraph) -> Dict[AtomId, AtomRuntime]:
    """Instantiate runtime state for every atom, wiring forwarding tables.

    For each group, its path atoms (including pass-through ones) get
    ``next_number``/``prev_atom`` entries chaining the path together; the
    first path atom (``prev_atom is None``) is the group's ingress and owns
    its group-local counter.
    """
    runtimes: Dict[AtomId, AtomRuntime] = {
        atom_id: AtomRuntime(atom_id, retired=atom_id in graph.retired)
        for atom_id in graph.atoms
    }
    for group in graph.groups():
        path = graph.group_path(group)
        for index, atom_id in enumerate(path):
            runtime = runtimes[atom_id]
            runtime.prev_atom[group] = path[index - 1] if index > 0 else None
            runtime.next_number[group] = (
                path[index + 1].number if index + 1 < len(path) else None
            )
    return runtimes
