"""Membership and non-membership proofs for the sealable trie.

Proofs are self-contained: a verifier needs only the bare 32-byte root
commitment (as carried in a guest block header) to check them.  They
serialize to a compact wire format because their byte size drives how many
host transactions a packet delivery needs (§V-A reports 4–5 transactions
per ``ReceivePacket``; the proof is most of that payload).

A proof is a top-down list of steps.  Verification replays the steps
bottom-up, recomputing each parent hash from its child until it either
reproduces the root (accept) or not (reject).

Membership terminal: a leaf (or branch value) holding the claimed value.
Non-membership terminals, mirroring where a lookup can die:

* the trie is empty;
* a branch has no child under the next nibble;
* a branch consumed the whole key but holds no value;
* a leaf or extension's path diverges from the remaining key.

Many keys under one root are proven together by a
:class:`MembershipWitness`: the partial trie over the union of their
paths, every node once.  A batched delivery proves ~30 sequence-adjacent
commitments at one height, whose single proofs repeat the same few
nodes thirty times over; the witness is about a tenth of their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.crypto.hashing import Hash
from repro.encoding import Reader, write_bytes, write_varint
from repro.errors import ProofError
from repro.trie.nibbles import (
    Nibbles,
    common_prefix_len,
    decode_nibbles,
    encode_nibbles,
    key_to_nibbles,
    nibbles_to_key,
)
from repro.trie.nodes import (
    HASH_BYTES,
    branch_hash as _branch_hash,
    extension_hash as _extension_hash,
    leaf_hash,
    value_commitment,
)


_ZERO_DIGEST = Hash.zero().value


def _leaf_hash(path: Nibbles, value: bytes) -> Hash:
    """Leaf hash from the *raw* value proofs carry on the wire."""
    return leaf_hash(path, value_commitment(value))


def pack_digests(digests: Sequence[bytes]) -> tuple[int, bytes]:
    """A branch's raw slot digests in the form proofs carry them: an
    occupancy bitmap (bit ``i`` = slot ``i``, clear where the digest is
    zero) and the occupied slots' digests concatenated in slot order.

    Branches in a hashed-key trie are mostly sparse, so writing all
    slots at 32 bytes each would waste most of the wire: the sibling set
    of a two-child branch costs 34 bytes this way instead of 480.  Proof
    size drives how many host transactions a delivery needs, so this is
    a direct fee/throughput win (§V-A).
    """
    if _ZERO_DIGEST not in digests:  # full: the top levels of a store
        return (1 << len(digests)) - 1, b"".join(digests)
    bitmap = 0
    present = []
    for slot, digest in enumerate(digests):
        if digest != _ZERO_DIGEST:
            bitmap |= 1 << slot
            present.append(digest)
    return bitmap, b"".join(present)


def _unpack(bitmap: int, digests: bytes, count: int) -> list[bytes]:
    """The ``count`` slot digests a packed set names, in slot order:
    the zero digest wherever ``bitmap`` is clear.  Walks whichever bits
    are fewer: the set ones of a sparse set, the clear ones of a dense
    one."""
    if 2 * bitmap.bit_count() < count:
        slots = [_ZERO_DIGEST] * count
        offset = 0
        while bitmap:
            low = bitmap & -bitmap
            slots[low.bit_length() - 1] = digests[offset:offset + HASH_BYTES]
            offset += HASH_BYTES
            bitmap ^= low
        return slots
    slots = [digests[at:at + HASH_BYTES]
             for at in range(0, len(digests), HASH_BYTES)]
    clear = ~bitmap & ((1 << count) - 1)
    while clear:
        low = clear & -clear
        slots.insert(low.bit_length() - 1, _ZERO_DIGEST)
        clear ^= low
    return slots


# ---------------------------------------------------------------------------
# Proof steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExtensionStep:
    """Traversed an extension node; consumes ``path`` nibbles."""

    path: Nibbles


@dataclass(frozen=True, slots=True)
class BranchStep:
    """Descended into slot ``index`` of a branch; consumes one nibble.

    The other 15 slots stay in their wire form: bit ``i`` of ``bitmap``
    is set when the ``i``-th sibling in slot order (the descended slot
    skipped) is occupied, and ``digests`` concatenates the occupied
    siblings' 32-byte hashes in that order.  ``value`` is the branch's
    own value.
    """

    index: int
    bitmap: int
    digests: bytes
    value: Optional[bytes]

    def parent_hash(self, child: Hash) -> Hash:
        slots = _unpack(self.bitmap, self.digests, 15)
        slots.insert(self.index, child.value)
        return _branch_hash(slots, self.value)


Step = Union[ExtensionStep, BranchStep]


# ---------------------------------------------------------------------------
# Non-membership terminal evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EmptyTrieEvidence:
    """The root commitment is the zero hash: nothing is in the trie."""


@dataclass(frozen=True, slots=True)
class EmptySlotEvidence:
    """A branch has no child under the key's next nibble.

    All 16 slots packed as in :class:`BranchStep` (``bitmap`` bit ``i``
    = slot ``i``); the verifier checks the bit of the key's next nibble
    is clear.
    """

    bitmap: int
    digests: bytes
    value: Optional[bytes]

    def node_hash(self) -> Hash:
        return _branch_hash(_unpack(self.bitmap, self.digests, 16), self.value)


@dataclass(frozen=True, slots=True)
class NoBranchValueEvidence:
    """The key ends exactly at a branch which holds no value; its 16
    slots packed as in :class:`EmptySlotEvidence`."""

    bitmap: int
    digests: bytes

    def node_hash(self) -> Hash:
        return _branch_hash(_unpack(self.bitmap, self.digests, 16), None)


@dataclass(frozen=True, slots=True)
class DivergentLeafEvidence:
    """A leaf sits where the key would descend, but its path differs.

    Carries the leaf's :func:`~repro.trie.nodes.value_commitment` rather
    than its raw value: absence only needs the leaf's hash, the
    commitment is fixed-size on the wire, and it is all a *sealed* leaf
    stub retains — so divergence from sealed leaves proves absence too.
    """

    path: Nibbles
    commitment: Hash

    def node_hash(self) -> Hash:
        return leaf_hash(self.path, self.commitment)


@dataclass(frozen=True, slots=True)
class DivergentExtensionEvidence:
    """An extension's path diverges from the remaining key."""

    path: Nibbles
    child: Hash

    def node_hash(self) -> Hash:
        return _extension_hash(self.path, self.child)


Evidence = Union[
    EmptyTrieEvidence,
    EmptySlotEvidence,
    NoBranchValueEvidence,
    DivergentLeafEvidence,
    DivergentExtensionEvidence,
]


# ---------------------------------------------------------------------------
# Proof containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MembershipProof:
    """Proof that ``key`` maps to ``value`` under some root commitment.

    Values always terminate at leaves: the provable stores built on the
    trie hash their keys to a fixed 32 bytes, so no key is a prefix of
    another and branch-value terminals never arise in proofs.
    """

    key: bytes
    value: bytes
    steps: tuple[Step, ...]
    #: Nibbles of the key remaining at the terminal leaf.
    leaf_path: Nibbles

    def to_bytes(self) -> bytes:
        # One shared builder end to end: proofs are serialized per packet
        # delivery, so avoiding per-field temporaries matters (§V-A).
        out = bytearray()
        write_bytes(out, self.key)
        write_bytes(out, self.value)
        write_bytes(out, encode_nibbles(self.leaf_path))
        write_varint(out, len(self.steps))
        for step in self.steps:
            _write_step(out, step)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MembershipProof":
        reader = Reader(data)
        key = reader.read_bytes()
        value = reader.read_bytes()
        leaf_path = decode_nibbles(reader.read_bytes())
        steps = tuple(_decode_step(reader) for _ in range(reader.read_varint()))
        reader.expect_end()
        return cls(key=key, value=value, steps=steps, leaf_path=leaf_path)


@dataclass(frozen=True, slots=True)
class NonMembershipProof:
    """Proof that ``key`` is absent under some root commitment."""

    key: bytes
    steps: tuple[Step, ...]
    evidence: Evidence

    def to_bytes(self) -> bytes:
        out = bytearray()
        write_bytes(out, self.key)
        write_varint(out, len(self.steps))
        for step in self.steps:
            _write_step(out, step)
        _write_evidence(out, self.evidence)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "NonMembershipProof":
        reader = Reader(data)
        key = reader.read_bytes()
        steps = tuple(_decode_step(reader) for _ in range(reader.read_varint()))
        evidence = _decode_evidence(reader)
        reader.expect_end()
        return cls(key=key, steps=steps, evidence=evidence)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

_STEP_EXTENSION = 0
_STEP_BRANCH = 1

_EV_EMPTY_TRIE = 0
_EV_EMPTY_SLOT = 1
_EV_NO_BRANCH_VALUE = 2
_EV_DIVERGENT_LEAF = 3
_EV_DIVERGENT_EXTENSION = 4

_ZERO_SLOT = "an occupied slot names the zero digest"


def _write_optional_value(out: bytearray, value: Optional[bytes]) -> None:
    if value is None:
        write_varint(out, 0)
    else:
        write_varint(out, 1)
        write_bytes(out, value)


def _decode_optional_value(reader: Reader) -> Optional[bytes]:
    flag = reader.read_varint()
    if flag > 1:
        raise ProofError(f"optional-value flag {flag} is neither 0 nor 1")
    return reader.read_bytes() if flag else None


def _read_packed(reader: Reader, count: int) -> tuple[int, bytes]:
    """A packed set of ``count`` slots: the 2-byte bitmap, then the
    occupied slots' digests in one read.  A set has one wire form, so a
    bit naming the zero digest (the same node as the bit clear) is
    refused."""
    bitmap = int.from_bytes(reader.read(2), "big")
    if bitmap >> count:
        raise ProofError(f"hash-set bitmap names slots beyond {count}")
    digests = reader.read(HASH_BYTES * bitmap.bit_count())
    at = digests.find(_ZERO_DIGEST)
    while at != -1:
        if not at % HASH_BYTES:
            raise ProofError(_ZERO_SLOT)
        at = digests.find(_ZERO_DIGEST, at + 1)
    return bitmap, digests


def _write_step(out: bytearray, step: Step) -> None:
    if isinstance(step, ExtensionStep):
        write_varint(out, _STEP_EXTENSION)
        write_bytes(out, encode_nibbles(step.path))
        return
    write_varint(out, _STEP_BRANCH)
    write_varint(out, step.index)
    out += step.bitmap.to_bytes(2, "big")
    out += step.digests
    _write_optional_value(out, step.value)


def _decode_step(reader: Reader) -> Step:
    kind = reader.read_varint()
    if kind == _STEP_EXTENSION:
        return ExtensionStep(path=decode_nibbles(reader.read_bytes()))
    if kind == _STEP_BRANCH:
        index = reader.read_varint()
        if index >= 16:
            raise ProofError(f"branch index {index} out of range")
        bitmap, digests = _read_packed(reader, 15)
        return BranchStep(index, bitmap, digests, _decode_optional_value(reader))
    raise ValueError(f"unknown proof step tag {kind}")


def _write_evidence(out: bytearray, evidence: Evidence) -> None:
    if isinstance(evidence, EmptyTrieEvidence):
        write_varint(out, _EV_EMPTY_TRIE)
        return
    if isinstance(evidence, EmptySlotEvidence):
        write_varint(out, _EV_EMPTY_SLOT)
        out += evidence.bitmap.to_bytes(2, "big")
        out += evidence.digests
        _write_optional_value(out, evidence.value)
        return
    if isinstance(evidence, NoBranchValueEvidence):
        write_varint(out, _EV_NO_BRANCH_VALUE)
        out += evidence.bitmap.to_bytes(2, "big")
        out += evidence.digests
        return
    if isinstance(evidence, DivergentLeafEvidence):
        write_varint(out, _EV_DIVERGENT_LEAF)
        write_bytes(out, encode_nibbles(evidence.path))
        out += evidence.commitment.value
        return
    if isinstance(evidence, DivergentExtensionEvidence):
        write_varint(out, _EV_DIVERGENT_EXTENSION)
        write_bytes(out, encode_nibbles(evidence.path))
        out += evidence.child.value
        return
    raise ValueError(f"unknown evidence type {type(evidence)!r}")


def _decode_evidence(reader: Reader) -> Evidence:
    kind = reader.read_varint()
    if kind == _EV_EMPTY_TRIE:
        return EmptyTrieEvidence()
    if kind == _EV_EMPTY_SLOT:
        bitmap, digests = _read_packed(reader, 16)
        return EmptySlotEvidence(bitmap, digests, _decode_optional_value(reader))
    if kind == _EV_NO_BRANCH_VALUE:
        return NoBranchValueEvidence(*_read_packed(reader, 16))
    if kind == _EV_DIVERGENT_LEAF:
        path = decode_nibbles(reader.read_bytes())
        commitment = Hash(reader.read(32))
        return DivergentLeafEvidence(path=path, commitment=commitment)
    if kind == _EV_DIVERGENT_EXTENSION:
        path = decode_nibbles(reader.read_bytes())
        child = Hash(reader.read(32))
        return DivergentExtensionEvidence(path=path, child=child)
    raise ValueError(f"unknown evidence tag {kind}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _fold_steps(steps: tuple[Step, ...], terminal: Hash) -> Hash:
    """Recompute the root by folding the steps bottom-up around ``terminal``."""
    current = terminal
    for step in reversed(steps):
        if isinstance(step, ExtensionStep):
            current = _extension_hash(step.path, current)
        else:
            current = step.parent_hash(current)
    return current


def _consumed_nibbles(steps: tuple[Step, ...]) -> int:
    consumed = 0
    for step in steps:
        if isinstance(step, ExtensionStep):
            consumed += len(step.path)
        else:
            consumed += 1
    return consumed


def _steps_match_key(steps: tuple[Step, ...], path: Nibbles) -> bool:
    """Check every step consumes nibbles consistent with ``path``."""
    pos = 0
    for step in steps:
        if isinstance(step, ExtensionStep):
            segment = path[pos : pos + len(step.path)]
            if segment != step.path:
                return False
            pos += len(step.path)
        else:
            if pos >= len(path) or path[pos] != step.index:
                return False
            pos += 1
    return True


def verify_membership(root: Hash, proof: MembershipProof) -> bool:
    """Return ``True`` iff ``proof`` shows ``proof.key → proof.value`` under ``root``."""
    path = key_to_nibbles(proof.key)
    if not _steps_match_key(proof.steps, path):
        return False
    consumed = _consumed_nibbles(proof.steps)
    if consumed + len(proof.leaf_path) != len(path):
        return False
    if proof.leaf_path != path[consumed:]:
        return False
    terminal = _leaf_hash(proof.leaf_path, proof.value)
    return _fold_steps(proof.steps, terminal) == root


def verify_non_membership(root: Hash, proof: NonMembershipProof) -> bool:
    """Return ``True`` iff ``proof`` shows ``proof.key`` is absent under ``root``."""
    path = key_to_nibbles(proof.key)
    if not _steps_match_key(proof.steps, path):
        return False
    consumed = _consumed_nibbles(proof.steps)
    remaining = path[consumed:]
    evidence = proof.evidence

    if isinstance(evidence, EmptyTrieEvidence):
        return not proof.steps and root == Hash.zero()

    if isinstance(evidence, EmptySlotEvidence):
        if not remaining:
            return False
        if evidence.bitmap >> remaining[0] & 1:
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, NoBranchValueEvidence):
        if remaining:
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, DivergentLeafEvidence):
        if evidence.path == remaining:
            return False  # that would be membership, not absence
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    if isinstance(evidence, DivergentExtensionEvidence):
        # The extension's path must genuinely diverge: it is neither a
        # prefix of the remaining key nor equal to it.
        prefix = common_prefix_len(evidence.path, remaining)
        if prefix == len(evidence.path):
            return False
        return _fold_steps(proof.steps, evidence.node_hash()) == root

    return False


# ---------------------------------------------------------------------------
# Batch membership witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WitnessLeaf:
    """A proven entry: the key's remaining nibbles and its raw value."""

    path: Nibbles
    value: bytes


@dataclass(frozen=True, slots=True)
class WitnessExtension:
    """An extension on the way to proven entries; ``child`` is expanded."""

    path: Nibbles
    child: "WitnessNode"


@dataclass(frozen=True, slots=True)
class WitnessBranch:
    """A branch on the way to proven entries.

    Each of the 16 ``slots`` is ``None`` (empty), the raw 32-byte
    digest of an occupied slot no proven key descends into, or the
    expanded child node — whose hash is not carried: the verifier
    recomputes it.
    """

    slots: tuple[Union[None, bytes, "WitnessNode"], ...]
    value: Optional[bytes]


WitnessNode = Union[WitnessLeaf, WitnessExtension, WitnessBranch]

_WITNESS_LEAF = 0
_WITNESS_EXTENSION = 1
_WITNESS_BRANCH = 2

#: The provable stores hash every key to 32 bytes, so no walk is longer.
_MAX_KEY_NIBBLES = 2 * HASH_BYTES

_DISAGREE = "proofs disagree: they were not taken under one root"


class MembershipWitness:
    """Proof that several keys map to their values under one root.

    The partial trie over the union of the keys' paths, folded once on
    construction into what a verifier asks of it: the ``root`` it
    commits to, and ``entries`` — each leaf's value under the key
    *re-derived from the nibbles walked to it*, so a leaf cannot be
    claimed under any key but the one its position spells (what
    ``_steps_match_key`` guarantees for a single proof).  The wire form
    is the pre-order walk of the nodes, so the bytes are a function of
    the root and the key set alone.
    """

    __slots__ = ("node", "root", "entries", "node_count")

    def __init__(self, node: WitnessNode,
                 claims: Optional[dict[Nibbles, bytes]] = None) -> None:
        """``claims`` (from :meth:`merge`): the digest the fold of the
        node each nibble path leads to must come to."""
        self.node = node
        self.entries: dict[bytes, bytes] = {}
        self.node_count = 0
        self.root = self._fold(node, (), claims or {})

    def proves(self, root: Hash, key: bytes, value: bytes) -> bool:
        """Whether this witness shows ``key → value`` under ``root``."""
        return self.root == root and self.entries.get(key) == value

    @classmethod
    def merge(cls, proofs: Iterable[MembershipProof]) -> "MembershipWitness":
        """The witness over the keys of ``proofs``, all taken under one
        root (anything else raises :class:`ProofError`: the sibling
        hashes a proof names for a subtree another proof expands must be
        what that subtree folds to)."""
        proofs = list(proofs)
        if not proofs:
            raise ProofError("a witness proves at least one key")
        claims: dict[Nibbles, bytes] = {}
        return cls(_merge_node(proofs, 0, (), claims), claims)

    def _fold(self, node: WitnessNode, walked: Nibbles,
              claims: dict[Nibbles, bytes]) -> Hash:
        self.node_count += 1
        if isinstance(node, WitnessLeaf):
            try:
                key = nibbles_to_key(walked + node.path)
            except ValueError:
                raise ProofError("witness leaf ends on a half byte") from None
            self.entries[key] = node.value
            return _leaf_hash(node.path, node.value)
        if isinstance(node, WitnessExtension):
            digest = self._fold(node.child, walked + node.path, claims)
            return _extension_hash(node.path, digest)
        children = []
        for index, slot in enumerate(node.slots):
            if slot is None:
                slot = _ZERO_DIGEST
            elif type(slot) is not bytes:
                below = walked + (index,)
                slot = self._fold(slot, below, claims).value
                if claims and claims.get(below, slot) != slot:
                    raise ProofError(_DISAGREE)
            children.append(slot)
        return _branch_hash(children, node.value)

    def to_bytes(self) -> bytes:
        out = bytearray()
        _write_witness_node(out, self.node)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MembershipWitness":
        reader = Reader(data)
        node = _decode_witness_node(reader, 0)
        reader.expect_end()
        return cls(node)


def _merge_node(proofs: Sequence[MembershipProof], at: int, walked: Nibbles,
                claims: dict[Nibbles, bytes]) -> WitnessNode:
    """The node every proof in ``proofs`` reaches after ``at`` steps,
    ``walked`` nibbles down.  ``claims`` collects, per expanded branch
    slot, the digest the proofs passing beside it name for it."""
    steps = [proof.steps[at] if at < len(proof.steps) else None
             for proof in proofs]
    step = steps[0]
    if step is None:
        leaf = WitnessLeaf(proofs[0].leaf_path, proofs[0].value)
        if any(other is not None for other in steps) or any(
                (proof.leaf_path, proof.value) != (leaf.path, leaf.value)
                for proof in proofs):
            raise ProofError(_DISAGREE)
        return leaf
    if isinstance(step, ExtensionStep):
        if any(other != step for other in steps):
            raise ProofError(_DISAGREE)
        return WitnessExtension(step.path, _merge_node(
            proofs, at + 1, walked + step.path, claims))
    below: dict[int, list[MembershipProof]] = {}
    views: dict[int, BranchStep] = {}
    for proof, other in zip(proofs, steps):
        if not isinstance(other, BranchStep) or other.value != step.value:
            raise ProofError(_DISAGREE)
        view = views.setdefault(other.index, other)
        # One wire form per set, so equal bytes are equal sets.
        if other.bitmap != view.bitmap or other.digests != view.digests:
            raise ProofError(_DISAGREE)
        below.setdefault(other.index, []).append(proof)
    # Every view names all slots but its own; two views must agree
    # wherever both look.
    named: dict[int, bytes] = {}
    for view in views.values():
        digests = _unpack(view.bitmap, view.digests, 15)
        digests.insert(view.index, None)
        for slot, digest in enumerate(digests):
            if digest is not None and named.setdefault(slot, digest) != digest:
                raise ProofError(_DISAGREE)
    slots: list[Union[None, bytes, WitnessNode]] = []
    for slot in range(16):
        if slot in below:
            if slot in named:
                claims[walked + (slot,)] = named[slot]
            slots.append(_merge_node(below[slot], at + 1, walked + (slot,), claims))
        else:
            slots.append(None if named[slot] == _ZERO_DIGEST else named[slot])
    return WitnessBranch(tuple(slots), step.value)


def _write_witness_node(out: bytearray, node: WitnessNode) -> None:
    if isinstance(node, WitnessLeaf):
        write_varint(out, _WITNESS_LEAF)
        write_bytes(out, encode_nibbles(node.path))
        write_bytes(out, node.value)
        return
    if isinstance(node, WitnessExtension):
        write_varint(out, _WITNESS_EXTENSION)
        write_bytes(out, encode_nibbles(node.path))
        _write_witness_node(out, node.child)
        return
    occupied = expanded = 0
    for index, slot in enumerate(node.slots):
        if slot is not None:
            occupied |= 1 << index
            if type(slot) is not bytes:
                expanded |= 1 << index
    write_varint(out, _WITNESS_BRANCH)
    out += occupied.to_bytes(2, "big")
    out += expanded.to_bytes(2, "big")
    _write_optional_value(out, node.value)
    for slot in node.slots:
        if type(slot) is bytes:
            out += slot
        elif slot is not None:
            _write_witness_node(out, slot)


def _decode_witness_node(reader: Reader, depth: int) -> WitnessNode:
    """One node, ``depth`` nibbles down; every refusal of a malformed
    witness is here or in the fold."""
    kind = reader.read_varint()
    if kind == _WITNESS_BRANCH:
        occupied = int.from_bytes(reader.read(2), "big")
        expanded = int.from_bytes(reader.read(2), "big")
        if expanded & ~occupied:
            raise ProofError("witness expands an empty branch slot")
        value = _decode_optional_value(reader)
        if expanded and depth >= _MAX_KEY_NIBBLES:
            raise ProofError("witness nests deeper than a key is long")
        slots: list[Union[None, bytes, WitnessNode]] = []
        for index in range(16):
            if expanded >> index & 1:
                slots.append(_decode_witness_node(reader, depth + 1))
            elif occupied >> index & 1:
                digest = reader.read(HASH_BYTES)
                if digest == _ZERO_DIGEST:
                    raise ProofError(_ZERO_SLOT)
                slots.append(digest)
            else:
                slots.append(None)
        return WitnessBranch(tuple(slots), value)
    if kind not in (_WITNESS_LEAF, _WITNESS_EXTENSION):
        raise ProofError(f"unknown witness node tag {kind}")
    path = decode_nibbles(reader.read_bytes())
    depth += len(path)
    if depth > _MAX_KEY_NIBBLES:
        raise ProofError("witness nests deeper than a key is long")
    if kind == _WITNESS_LEAF:
        return WitnessLeaf(path, reader.read_bytes())
    if not path:
        raise ProofError("witness extension with an empty path")
    return WitnessExtension(path, _decode_witness_node(reader, depth))
