"""Messages, sequence-number stamps, and atom identifiers.

A message published to a group collects, while traversing the sequencing
network, a *group-local* sequence number from its ingress atom plus one
sequence number from every sequencing atom associated with its destination
group (Section 3.1).  The collected numbers form the message's
:class:`Stamp`.  Stamp size is proportional, in the worst case, to the
number of groups — never to group size — which is the paper's overhead
advantage over vector timestamps (Section 2, Section 4.4).
"""

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
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

    Every identity also gets a dense ``number``, in order of first naming,
    which stamps, forwarding tables and receivers carry instead of the
    atom (:meth:`by_number` is the way back).  It belongs to the identity,
    so it holds in every epoch, retired or not; like ``_hash`` it is this
    process's own and not a field, so it never travels.
    """

    kind: str
    groups: Tuple[int, ...]

    OVERLAP = "overlap"
    INGRESS = "ingress"

    #: Per instance, set by ``__post_init__``; annotated ``ClassVar`` only
    #: so that ``dataclass`` does not make a field of them.
    _hash: ClassVar[int]
    number: ClassVar[int]
    #: ``(kind, groups)`` -> the first instance of that identity, the one
    #: :meth:`overlap`/:meth:`ingress` hand out; bounded by the number of
    #: distinct atoms ever named
    _shared: ClassVar[Dict[Tuple[str, Tuple[int, ...]], "AtomId"]] = {}
    #: number -> the shared instance
    _numbered: ClassVar[List["AtomId"]] = []

    def __post_init__(self) -> None:
        key = (self.kind, self.groups)
        object.__setattr__(self, "_hash", hash(key))
        shared = AtomId._shared.setdefault(key, self)
        if shared is self:
            AtomId._numbered.append(self)
            object.__setattr__(self, "number", len(AtomId._numbered) - 1)
        else:
            object.__setattr__(self, "number", shared.number)

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
        return cls._shared.get((kind, groups)) or cls(kind, groups)

    @staticmethod
    def by_number(number: int) -> "AtomId":
        """The atom whose ``number`` this is."""
        return _NUMBERED[number]

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


_NUMBERED = AtomId._numbered
_set = object.__setattr__
_Ints = Tuple[int, ...]
#: ``(atom_id, sequence_number)`` pairs: a stamp's edge form
AtomSeqs = Tuple[Tuple[AtomId, int], ...]


def _edge_form(atoms: _Ints, seqs: _Ints) -> AtomSeqs:
    return tuple(zip(map(_NUMBERED.__getitem__, atoms), seqs))


class Stamp:
    """The immutable ordering information a message carries at delivery.

    Built, compared, printed and pickled as the frozen record
    ``Stamp(group, group_seq, atom_seqs)``; held as two parallel tuples of
    ints, which receivers read and the collector stops tracking.

    Attributes
    ----------
    group:
        Destination group id.
    group_seq:
        Group-local sequence number, assigned by the group's ingress atom.
    atoms:
        The :attr:`AtomId.number` of every sequencing atom associated with
        the destination group, in path order.
    seqs:
        The sequence number each of ``atoms`` assigned, in the same order.
    atom_seqs:
        The two as ``(atom_id, sequence_number)`` pairs, built on read.
    """

    __slots__ = ("group", "group_seq", "atoms", "seqs")

    group: int
    group_seq: int
    atoms: _Ints
    seqs: _Ints

    def __init__(self, group: int, group_seq: int, atom_seqs: AtomSeqs = ()):
        numbers = tuple(atom.number for atom, _ in atom_seqs)
        _fill(self, group, group_seq, numbers, tuple(seq for _, seq in atom_seqs))

    @property
    def atom_seqs(self) -> AtomSeqs:
        return _edge_form(self.atoms, self.seqs)

    def seq_of(self, atom_id: AtomId) -> Optional[int]:
        """Sequence number this stamp carries for ``atom_id``, if any."""
        try:
            return self.seqs[self.atoms.index(atom_id.number)]
        except ValueError:
            return None

    def size_bytes(self) -> int:
        """Serialized size of the ordering information."""
        return HEADER_BYTES + ATOM_ENTRY_BYTES * len(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stamp):
            return NotImplemented
        return (self.group, self.group_seq, self.atoms, self.seqs) == (
            other.group, other.group_seq, other.atoms, other.seqs
        )

    def __hash__(self) -> int:
        return hash((self.group, self.group_seq, self.atoms, self.seqs))

    def __repr__(self) -> str:
        return (
            f"Stamp(group={self.group!r}, group_seq={self.group_seq!r}, "
            f"atom_seqs={self.atom_seqs!r})"
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        # Through the edge form: numbers are this process's own.
        return (Stamp, (self.group, self.group_seq, self.atom_seqs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _fill(stamp: Stamp, group: int, group_seq: int, atoms: _Ints, seqs: _Ints) -> Stamp:
    _set(stamp, "group", group)
    _set(stamp, "group_seq", group_seq)
    _set(stamp, "atoms", atoms)
    _set(stamp, "seqs", seqs)
    return stamp


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
        "atoms",
        "seqs",
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
        #: numbers of the atoms that stamped it and their sequence numbers,
        #: in path order (tuples: they become the stamp's as they are)
        self.atoms: _Ints = ()
        self.seqs: _Ints = ()

    def assign_group_seq(self, seq: int) -> None:
        """Record the group-local sequence number (once, at ingress)."""
        if self.group_seq is not None:
            raise ValueError(f"message {self.msg_id} already has a group seq")
        self.group_seq = seq

    def add_atom_seq(self, atom_id: AtomId, seq: int) -> None:
        """Append an atom's sequence number (each atom stamps once)."""
        self.add_seq(atom_id.number, seq)

    def add_seq(self, number: int, seq: int) -> None:
        """:meth:`add_atom_seq` for the atom with that ``number``."""
        if number in self.atoms:
            raise ValueError(
                f"atom {_NUMBERED[number]} already stamped message {self.msg_id}"
            )
        self.atoms += (number,)
        self.seqs += (seq,)

    @property
    def atom_seqs(self) -> AtomSeqs:
        """Atom sequence numbers collected so far, in path order."""
        return _edge_form(self.atoms, self.seqs)

    def stamp(self) -> Stamp:
        """Freeze the ordering information for delivery."""
        if self.group_seq is None:
            raise ValueError(f"message {self.msg_id} was never ingress-sequenced")
        stamp = object.__new__(Stamp)
        return _fill(stamp, self.group, self.group_seq, self.atoms, self.seqs)

    def __repr__(self) -> str:
        return (
            f"<Message id={self.msg_id} group={self.group} sender={self.sender} "
            f"gseq={self.group_seq} atoms={list(self.atom_seqs)}>"
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
