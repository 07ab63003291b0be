"""Messages, sequence-number stamps, and atom identifiers.

A message published to a group collects, while traversing the sequencing
network, a *group-local* sequence number from its ingress atom plus one
sequence number from every sequencing atom associated with its destination
group (Section 3.1).  The collected numbers form the message's
:class:`Stamp`.  Stamp size is proportional, in the worst case, to the
number of groups — never to group size — which is the paper's overhead
advantage over vector timestamps (Section 2, Section 4.4).
"""

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, ClassVar, Dict, List, Optional, Tuple

#: Serialized bytes for fixed message header fields (ids, group, group seq).
HEADER_BYTES = 16
#: Serialized bytes per (atom id, sequence number) stamp entry.
ATOM_ENTRY_BYTES = 12
#: Serialized bytes per vector-timestamp entry (node id + counter), used by
#: the vector-clock baseline for the overhead comparison.
VECTOR_ENTRY_BYTES = 8


@dataclass(frozen=True, order=True)
class AtomId:
    """Identity of a sequencing atom.

    Overlap atoms are named by the (sorted) pair of groups whose double
    overlap they sequence; ingress-only atoms — created for groups without
    any double overlap — are named by their single group.

    Atoms key every hot dict and set (chain positions, counters, hold-back
    state), so the hash is computed once at construction.  It equals the
    dataclass-generated ``hash((kind, groups))`` — set and dict iteration
    orders are those of a plain frozen dataclass — and is not a field:
    ``fields()``, ``repr``, ordering and equality see only ``kind`` and
    ``groups``.

    :meth:`overlap` and :meth:`ingress` return one shared instance per
    identity, so a dict probe with an atom obtained from them matches its
    key by object identity and never reaches the generated ``__eq__``.
    An ``AtomId`` constructed directly or unpickled is a separate object
    that still compares and hashes equal to the shared one.
    """

    kind: str
    groups: Tuple[int, ...]

    OVERLAP = "overlap"
    INGRESS = "ingress"

    #: Per instance, set by ``__post_init__``; annotated ``ClassVar`` only
    #: so that ``dataclass`` does not make a field of it.
    _hash: ClassVar[int]
    #: ``(kind, groups)`` -> the instance :meth:`overlap`/:meth:`ingress`
    #: hand out; bounded by the number of distinct atoms ever named
    _shared: ClassVar[Dict[Tuple[str, Tuple[int, ...]], "AtomId"]] = {}

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.groups)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild through ``__init__``: ``str`` hashes differ between
        # processes, so a pickled ``_hash`` would be stale on arrival.
        return (type(self), (self.kind, self.groups))

    @classmethod
    def overlap(cls, g: int, h: int) -> "AtomId":
        """Atom for the double overlap of groups ``g`` and ``h``."""
        if g == h:
            raise ValueError("an overlap atom needs two distinct groups")
        return cls._share(cls.OVERLAP, (g, h) if g < h else (h, g))

    @classmethod
    def ingress(cls, g: int) -> "AtomId":
        """Ingress-only atom for a group without double overlaps."""
        return cls._share(cls.INGRESS, (g,))

    @classmethod
    def _share(cls, kind: str, groups: Tuple[int, ...]) -> "AtomId":
        key = (kind, groups)
        atom = cls._shared.get(key)
        if atom is None:
            atom = cls._shared[key] = cls(kind, groups)
        return atom

    @property
    def is_ingress_only(self) -> bool:
        """True for ingress-only atoms (paper: grow linearly, excluded from
        the Figure 5 sequencing-node count)."""
        return self.kind == self.INGRESS

    def sequences_group(self, group: int) -> bool:
        """Whether this atom assigns sequence numbers to ``group``."""
        return group in self.groups

    @cached_property
    def label(self) -> str:
        """``I(g)`` or ``Q(g,h)``: the atom's ``repr`` and its name in
        trace records, formatted on first use and kept (every traced atom
        visit writes it; like ``_hash`` it is not a field)."""
        if self.is_ingress_only:
            return f"I({self.groups[0]})"
        return f"Q({self.groups[0]},{self.groups[1]})"

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Stamp:
    """The immutable ordering information a message carries at delivery.

    Attributes
    ----------
    group:
        Destination group id.
    group_seq:
        Group-local sequence number, assigned by the group's ingress atom.
    atom_seqs:
        ``(atom_id, sequence_number)`` pairs in path order, one per
        sequencing atom associated with the destination group.
    """

    group: int
    group_seq: int
    atom_seqs: Tuple[Tuple[AtomId, int], ...] = ()

    @cached_property
    def atoms(self) -> Tuple[AtomId, ...]:
        """The atoms of ``atom_seqs``, in order.

        Kept on the stamp once asked for (it is not a field), so every
        receiver that takes a group's stamp layout from this stamp holds
        the same tuple.
        """
        return tuple(map(itemgetter(0), self.atom_seqs))

    def seq_of(self, atom_id: AtomId) -> Optional[int]:
        """Sequence number this stamp carries for ``atom_id``, if any."""
        for aid, seq in self.atom_seqs:
            if aid == atom_id:
                return seq
        return None

    def size_bytes(self) -> int:
        """Serialized size of the ordering information."""
        return HEADER_BYTES + ATOM_ENTRY_BYTES * len(self.atom_seqs)


class Message:
    """A published message accumulating its stamp during sequencing.

    Instances are created by the publisher-side API and mutated only by
    sequencing atoms (via :meth:`assign_group_seq` / :meth:`add_atom_seq`)
    until distribution, after which :meth:`stamp` freezes the ordering
    information receivers use.
    """

    __slots__ = (
        "msg_id",
        "group",
        "sender",
        "payload",
        "publish_time",
        "group_seq",
        "_atom_seqs",
    )

    def __init__(
        self,
        msg_id: int,
        group: int,
        sender: int,
        payload: Any = None,
        publish_time: float = 0.0,
    ):
        self.msg_id = msg_id
        self.group = group
        self.sender = sender
        self.payload = payload
        self.publish_time = publish_time
        self.group_seq: Optional[int] = None
        self._atom_seqs: List[Tuple[AtomId, int]] = []

    def assign_group_seq(self, seq: int) -> None:
        """Record the group-local sequence number (once, at ingress)."""
        if self.group_seq is not None:
            raise ValueError(f"message {self.msg_id} already has a group seq")
        self.group_seq = seq

    def add_atom_seq(self, atom_id: AtomId, seq: int) -> None:
        """Append an atom's sequence number (each atom stamps once)."""
        stamped_hash = atom_id._hash
        for aid, _ in self._atom_seqs:
            # Cached hashes first: an int compare rules out every other
            # atom without a call into the generated ``__eq__``.
            if aid._hash == stamped_hash and aid == atom_id:
                raise ValueError(
                    f"atom {atom_id} already stamped message {self.msg_id}"
                )
        self._atom_seqs.append((atom_id, seq))

    @property
    def atom_seqs(self) -> Tuple[Tuple[AtomId, int], ...]:
        """Atom sequence numbers collected so far, in path order."""
        return tuple(self._atom_seqs)

    def stamp(self) -> Stamp:
        """Freeze the ordering information for delivery."""
        if self.group_seq is None:
            raise ValueError(f"message {self.msg_id} was never ingress-sequenced")
        return Stamp(self.group, self.group_seq, tuple(self._atom_seqs))

    def __repr__(self) -> str:
        return (
            f"<Message id={self.msg_id} group={self.group} sender={self.sender} "
            f"gseq={self.group_seq} atoms={self._atom_seqs}>"
        )


@dataclass(frozen=True)
class EpochFence:
    """Payload marking the last message of a sequencing space in an epoch.

    During an online epoch switch (:func:`repro.core.reconfigure.
    reconfigure`) one fence is published through every group's sequencing
    path.  Because each group's traffic follows a single static path of
    FIFO reliable links (C1) and receivers deliver in sequence order, a
    receiver that has delivered the fence has necessarily delivered every
    message the old epoch sequenced before it — the fence *fences* the
    in-flight traffic of that space.  Fences consume ordinary group-local
    and atom sequence numbers but are consumed by the fabric at the
    receiver instead of being handed to the application.
    """

    epoch: int
    group: int


def vector_timestamp_bytes(n_nodes: int) -> int:
    """Wire size of a dense vector timestamp over ``n_nodes`` processes.

    Used for the Section 4.4 comparison: the sequencing approach wins
    whenever the number of nodes exceeds the number of groups.
    """
    return HEADER_BYTES + VECTOR_ENTRY_BYTES * n_nodes
