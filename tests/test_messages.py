"""Unit tests for atom ids, stamps, and messages."""

import copy
import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.core.messages import (
    ATOM_ENTRY_BYTES,
    HEADER_BYTES,
    AtomId,
    Message,
    Stamp,
    vector_timestamp_bytes,
)
from tests.conftest import golden_snapshot

# ---------------------------------------------------------------------------
# AtomId
# ---------------------------------------------------------------------------


def test_overlap_atom_sorts_groups():
    assert AtomId.overlap(5, 2) == AtomId.overlap(2, 5)
    assert AtomId.overlap(5, 2).groups == (2, 5)


def test_overlap_atom_same_group_rejected():
    with pytest.raises(ValueError):
        AtomId.overlap(3, 3)


def test_ingress_atom():
    atom = AtomId.ingress(4)
    assert atom.is_ingress_only
    assert atom.groups == (4,)


def test_overlap_atom_not_ingress_only():
    assert not AtomId.overlap(1, 2).is_ingress_only


def test_sequences_group():
    atom = AtomId.overlap(1, 2)
    assert atom.sequences_group(1)
    assert atom.sequences_group(2)
    assert not atom.sequences_group(3)
    assert AtomId.ingress(7).sequences_group(7)


def test_atom_ids_hashable_and_ordered():
    atoms = {AtomId.overlap(1, 2), AtomId.overlap(2, 1), AtomId.ingress(1)}
    assert len(atoms) == 2
    assert sorted([AtomId.overlap(3, 4), AtomId.overlap(1, 2)])[0] == AtomId.overlap(1, 2)


def test_atom_hash_is_the_dataclass_hash():
    # Set and dict iteration orders — hence every digest — depend on it.
    for atom in (AtomId.overlap(1, 2), AtomId.overlap(7, 3), AtomId.ingress(4)):
        assert hash(atom) == hash((atom.kind, atom.groups))


def test_cached_hash_is_not_a_field():
    atom = AtomId.overlap(1, 2)
    assert [f.name for f in dataclasses.fields(atom)] == ["kind", "groups"]
    assert dataclasses.asdict(atom) == {"kind": "overlap", "groups": (1, 2)}
    assert repr(atom) == "Q(1,2)"
    assert atom == AtomId("overlap", (1, 2))
    assert atom != AtomId.ingress(1)
    assert AtomId.ingress(9) < AtomId.overlap(1, 2) < AtomId.overlap(1, 3)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_atom_round_trips_keep_equality_and_hash(clone):
    for atom in (AtomId.overlap(1, 2), AtomId.ingress(4)):
        twin = clone(atom)
        assert twin == atom
        assert hash(twin) == hash(atom) == hash((twin.kind, twin.groups))
        assert {atom: 1}[twin] == 1


def test_pickled_atom_carries_no_stale_hash():
    # str hashes differ between processes; only the fields may travel.
    assert b"_hash" not in pickle.dumps(AtomId.overlap(1, 2))


def test_certificate_bytes_unchanged(env32):
    # Recorded before AtomId cached its hash: atoms must not leak a new
    # attribute into, or reorder, the exported certificate.
    fabric = env32.build_fabric(env32.membership_from(golden_snapshot()), seed=3)
    blob = json.dumps(fabric.export_certificate(), sort_keys=True).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "34c122a5865487a86eb445f80ae5ada01e9f9df2448595667178f6028b91ac56"
    )


def test_named_constructors_share_one_instance_per_atom():
    shared = AtomId.overlap(1, 2)
    assert AtomId.overlap(2, 1) is shared
    assert AtomId.ingress(3) is AtomId.ingress(3)
    assert AtomId.ingress(1) is not AtomId.overlap(1, 2)
    # Direct construction and unpickling give separate, equal objects.
    for other in (AtomId("overlap", (1, 2)), pickle.loads(pickle.dumps(shared))):
        assert other is not shared
        assert other == shared and hash(other) == hash(shared)
        assert {shared: "x"}[other] == "x"


def test_stamp_holds_numbers_and_reads_as_pairs():
    q1, q2 = AtomId.overlap(0, 1), AtomId.overlap(0, 2)
    stamp = Stamp(0, 1, ((q1, 5), (q2, 6)))
    assert (stamp.atoms, stamp.seqs) == ((q1.number, q2.number), (5, 6))
    assert stamp.atom_seqs == ((q1, 5), (q2, 6))
    assert stamp == Stamp(0, 1, ((q1, 5), (q2, 6)))
    assert stamp != Stamp(0, 1, ((q2, 6), (q1, 5)))
    assert repr(stamp) == (
        "Stamp(group=0, group_seq=1, atom_seqs=((Q(0,1), 5), (Q(0,2), 6)))"
    )
    assert Stamp(0, 1).atoms == Stamp(0, 1).seqs == ()


def test_atom_numbers_belong_to_the_identity():
    atom = AtomId.overlap(1, 2)
    assert AtomId.by_number(atom.number) is atom
    assert AtomId.overlap(1, 3).number != atom.number != AtomId.ingress(1).number
    for twin in (AtomId("overlap", (1, 2)), copy.deepcopy(atom)):
        assert twin is not atom and twin.number == atom.number
    assert "number" not in [f.name for f in dataclasses.fields(atom)]


def test_atom_repr():
    assert repr(AtomId.overlap(1, 2)) == "Q(1,2)"
    assert repr(AtomId.ingress(3)) == "I(3)"


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------


def test_stamp_seq_of():
    q = AtomId.overlap(0, 1)
    stamp = Stamp(group=0, group_seq=3, atom_seqs=((q, 7),))
    assert stamp.seq_of(q) == 7
    assert stamp.seq_of(AtomId.overlap(0, 2)) is None


def test_stamp_size_grows_with_entries():
    q1, q2 = AtomId.overlap(0, 1), AtomId.overlap(0, 2)
    s0 = Stamp(group=0, group_seq=1)
    s2 = Stamp(group=0, group_seq=1, atom_seqs=((q1, 1), (q2, 2)))
    assert s0.size_bytes() == HEADER_BYTES
    assert s2.size_bytes() == HEADER_BYTES + 2 * ATOM_ENTRY_BYTES


def test_stamp_immutable():
    stamp = Stamp(group=0, group_seq=1)
    with pytest.raises(Exception):
        stamp.group_seq = 2


# ---------------------------------------------------------------------------
# Message
# ---------------------------------------------------------------------------


def test_message_accumulates_stamp():
    msg = Message(msg_id=1, group=0, sender=2, payload="x", publish_time=1.5)
    msg.assign_group_seq(4)
    q = AtomId.overlap(0, 1)
    msg.add_atom_seq(q, 9)
    stamp = msg.stamp()
    assert stamp.group == 0
    assert stamp.group_seq == 4
    assert stamp.atom_seqs == ((q, 9),)


def test_message_group_seq_assigned_once():
    msg = Message(1, 0, 2)
    msg.assign_group_seq(1)
    with pytest.raises(ValueError):
        msg.assign_group_seq(2)


def test_message_atom_stamps_once_per_atom():
    msg = Message(1, 0, 2)
    q = AtomId.overlap(0, 1)
    msg.add_atom_seq(q, 1)
    with pytest.raises(ValueError):
        msg.add_atom_seq(q, 2)


def test_message_rejects_an_equal_atom_that_is_another_object():
    msg = Message(1, 0, 2)
    msg.add_atom_seq(AtomId.overlap(0, 2), 1)
    msg.add_atom_seq(AtomId.overlap(0, 1), 1)
    with pytest.raises(ValueError, match="already stamped"):
        msg.add_atom_seq(AtomId("overlap", (0, 1)), 2)
    assert [seq for _, seq in msg.atom_seqs] == [1, 1]


def test_message_stamp_requires_ingress():
    msg = Message(1, 0, 2)
    with pytest.raises(ValueError):
        msg.stamp()


def test_message_atom_seqs_in_path_order():
    msg = Message(1, 0, 2)
    msg.assign_group_seq(1)
    q1, q2 = AtomId.overlap(0, 1), AtomId.overlap(0, 2)
    msg.add_atom_seq(q1, 5)
    msg.add_atom_seq(q2, 3)
    assert msg.atom_seqs == ((q1, 5), (q2, 3))


def test_message_repr():
    msg = Message(1, 0, 2)
    assert "id=1" in repr(msg)


# ---------------------------------------------------------------------------
# Vector timestamp size (overhead comparison)
# ---------------------------------------------------------------------------


def test_vector_timestamp_bytes_scales_with_nodes():
    assert vector_timestamp_bytes(128) > vector_timestamp_bytes(32)


def test_stamp_smaller_than_vector_when_nodes_exceed_groups():
    # The paper's Section 4.4 claim: with fewer stamp entries than nodes,
    # the sequencing approach wins.
    n_nodes, n_entries = 128, 63
    q_entries = tuple((AtomId.overlap(0, g), 1) for g in range(1, n_entries + 1))
    stamp = Stamp(group=0, group_seq=1, atom_seqs=q_entries)
    assert stamp.size_bytes() < vector_timestamp_bytes(n_nodes) + HEADER_BYTES
