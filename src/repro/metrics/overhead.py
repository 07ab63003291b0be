"""Per-message ordering-metadata overhead (paper Sections 2 and 4.4).

"Unlike vector timestamp approaches, the additional information we append
to each message does not depend on the size of the destination group and
is proportional, in the worst case, to the number of groups."

These helpers quantify that comparison: the stamp of a message to group G
carries one entry per sequencing atom of G (bounded by the number of
groups), while a vector timestamp carries one entry per node in the
system.  "Our sequencer-based approach is attractive whenever the number
of nodes exceeds the number of groups."
"""

from typing import Dict

from repro.core.messages import ATOM_ENTRY_BYTES, HEADER_BYTES
from repro.core.sequencing_graph import SequencingGraph


def stamp_overhead_bytes(graph: SequencingGraph) -> Dict[int, int]:
    """Delivered-stamp size in bytes for each group's messages."""
    return {
        group: HEADER_BYTES + ATOM_ENTRY_BYTES * len(graph.atoms_of_group(group))
        for group in graph.groups()
    }
