"""Unit tests for trie membership / non-membership proofs."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import Hash
from repro.encoding import Reader
from repro.errors import ProofError, SealedNodeError, TrieError
from repro.trie import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
    SealableTrie,
    verify_membership,
    verify_non_membership,
)
from repro.trie.nodes import branch_hash
from repro.trie.proof import (
    BranchStep,
    DivergentExtensionEvidence,
    DivergentLeafEvidence,
    EmptySlotEvidence,
    EmptyTrieEvidence,
    NoBranchValueEvidence,
    WitnessBranch,
    WitnessExtension,
    WitnessLeaf,
    _decode_evidence,
    _decode_step,
    _read_packed,
    _write_evidence,
    _write_step,
    pack_digests,
)


def key(i: int) -> bytes:
    return hashlib.sha256(f"key-{i}".encode()).digest()


@pytest.fixture
def populated():
    trie = SealableTrie()
    for i in range(64):
        trie.set(key(i), f"value-{i}".encode())
    return trie


class TestMembershipProofs:
    def test_valid_proof_verifies(self, populated):
        for i in (0, 7, 33, 63):
            proof = populated.prove(key(i))
            assert verify_membership(populated.root_hash, proof)

    def test_proof_binds_value(self, populated):
        proof = populated.prove(key(5))
        forged = MembershipProof(
            key=proof.key, value=b"forged", steps=proof.steps, leaf_path=proof.leaf_path,
        )
        assert not verify_membership(populated.root_hash, forged)

    def test_proof_binds_key(self, populated):
        proof = populated.prove(key(5))
        forged = MembershipProof(
            key=key(6), value=proof.value, steps=proof.steps, leaf_path=proof.leaf_path,
        )
        assert not verify_membership(populated.root_hash, forged)

    def test_proof_bound_to_root(self, populated):
        proof = populated.prove(key(5))
        other = SealableTrie()
        other.set(key(5), b"value-5")
        # Same key/value, different trie contents => different root.
        assert not verify_membership(other.root_hash, proof)

    def test_proof_fails_against_wrong_root(self, populated):
        proof = populated.prove(key(5))
        assert not verify_membership(Hash.of(b"random"), proof)

    def test_proof_after_update_is_stale(self, populated):
        proof = populated.prove(key(5))
        populated.set(key(99), b"new-entry")
        assert not verify_membership(populated.root_hash, proof)
        # But it still verifies against the historical root it was made for.

    def test_single_entry_trie(self):
        trie = SealableTrie()
        trie.set(key(1), b"only")
        proof = trie.prove(key(1))
        assert verify_membership(trie.root_hash, proof)
        assert proof.steps == ()

    def test_prove_missing_raises(self, populated):
        with pytest.raises(Exception):
            populated.prove(key(1000))

    def test_serialization_roundtrip(self, populated):
        proof = populated.prove(key(5))
        data = proof.to_bytes()
        restored = MembershipProof.from_bytes(data)
        assert restored == proof
        assert verify_membership(populated.root_hash, restored)

    def test_serialized_size_reasonable(self, populated):
        # A proof over 64 entries should be a handful of branch steps:
        # small enough to chunk into a few 1232-byte transactions (§V-A).
        proof = populated.prove(key(5))
        assert 100 < len(proof.to_bytes()) < 4096

    def test_corrupted_serialization_rejected(self, populated):
        data = bytearray(populated.prove(key(5)).to_bytes())
        data[len(data) // 2] ^= 0xFF
        try:
            restored = MembershipProof.from_bytes(bytes(data))
        except ValueError:
            return  # malformed wire data is an acceptable failure
        assert not verify_membership(populated.root_hash, restored)


class TestHashSetCodec:
    """The occupancy-bitmap encoding of a branch's hashes, as the step
    and evidence codecs carry it, keeps its refusals: it never reads
    past the buffer and never accepts a bitmap wider than the set."""

    def test_round_trip_keeps_slots(self):
        slots = tuple(Hash.of(bytes([i])).value if i % 3 else bytes(32)
                      for i in range(16))
        bitmap, digests = pack_digests(slots)
        assert bitmap == sum(1 << i for i in range(16) if i % 3)
        assert digests == b"".join(slot for slot in slots if any(slot))
        # Slot 0 is empty, so the fifteen siblings of a step into it are
        # the set's slots 1-15.
        for write, decode, item in (
                (_write_evidence, _decode_evidence,
                 NoBranchValueEvidence(bitmap, digests)),
                (_write_step, _decode_step,
                 BranchStep(0, bitmap >> 1, digests, None))):
            out = bytearray()
            write(out, item)
            assert item.bitmap.to_bytes(2, "big") + digests in out
            reader = Reader(bytes(out))
            assert decode(reader) == item
            reader.expect_end()

    def test_a_zero_digest_is_an_empty_slot_whoever_built_it(self):
        assert pack_digests((bytes(32),) * 16) == (0, b"")
        assert pack_digests((Hash.zero().value,) * 16) == (0, b"")

    @pytest.mark.parametrize("missing", [1, 31, 32, 33, 64])
    def test_truncated_blob_is_refused(self, missing):
        wire = ((1 << 15) - 1).to_bytes(2, "big") + b"".join(
            Hash.of(bytes([i])).value for i in range(15))
        with pytest.raises(ValueError, match="truncated buffer"):
            _read_packed(Reader(wire[:-missing]), 15)

    def test_truncated_bitmap_is_refused(self):
        with pytest.raises(ValueError, match="truncated buffer"):
            _read_packed(Reader(b"\x7f"), 15)

    def test_bitmap_beyond_the_set_is_refused(self):
        digest = Hash.of(b"slot 15").value
        wire = (1 << 15).to_bytes(2, "big") + digest
        with pytest.raises(ProofError, match="beyond 15"):
            _read_packed(Reader(wire), 15)
        assert _read_packed(Reader(wire), 16) == (1 << 15, digest)

    def test_truncated_proof_is_refused_whole(self, populated):
        wire = populated.prove(key(5)).to_bytes()
        for cut in range(1, 40):
            with pytest.raises(ValueError):
                MembershipProof.from_bytes(wire[:-cut])


class TestMembershipWitness:
    """One witness for many keys under one root: the unit-level cases;
    the equivalence with single proofs is a property in
    ``tests/test_trie_properties.py``."""

    KEYS = (0, 7, 33, 63)

    @pytest.fixture
    def witness(self, populated):
        return MembershipWitness.merge(populated.prove(key(i)) for i in self.KEYS)

    def test_folds_to_the_root_and_proves_each_key(self, populated, witness):
        assert witness.root == populated.root_hash
        assert witness.entries == {
            key(i): f"value-{i}".encode() for i in self.KEYS}
        for i in self.KEYS:
            assert witness.proves(populated.root_hash, key(i), f"value-{i}".encode())

    def test_binds_root_key_and_value(self, populated, witness):
        root = populated.root_hash
        assert not witness.proves(Hash.of(b"random"), key(7), b"value-7")
        assert not witness.proves(root, key(7), b"forged")
        # Present in the trie, absent from the witness.
        assert not witness.proves(root, key(8), b"value-8")
        # A proven value under a key its leaf does not sit at.
        assert not witness.proves(root, key(33), b"value-7")
        assert not witness.proves(root, key(1000), b"value-7")

    def test_each_shared_node_is_carried_once(self, populated, witness):
        singles = [populated.prove(key(i)) for i in self.KEYS]
        assert isinstance(witness.node, WitnessBranch)
        # The root branch once, one expanded slot per distinct first
        # nibble: those children's hashes are recomputed, not shipped.
        expanded = [slot for slot in witness.node.slots
                    if slot is not None and not isinstance(slot, bytes)]
        assert len(expanded) == len({key(i)[0] >> 4 for i in self.KEYS})
        assert witness.node_count < sum(len(p.steps) + 1 for p in singles)
        assert len(witness.to_bytes()) < 0.5 * sum(len(p.to_bytes()) for p in singles)

    def test_bytes_are_a_function_of_the_root_and_the_key_set(self, populated, witness):
        wire = witness.to_bytes()
        again = MembershipWitness.merge(
            populated.prove(key(i)) for i in reversed(self.KEYS + self.KEYS))
        assert again.to_bytes() == wire
        decoded = MembershipWitness.from_bytes(wire)
        assert decoded.node == witness.node and decoded.to_bytes() == wire
        assert (decoded.root, decoded.entries, decoded.node_count) == (
            witness.root, witness.entries, witness.node_count)

    def test_single_entry_trie_is_a_single_leaf(self):
        trie = SealableTrie()
        trie.set(key(1), b"only")
        witness = MembershipWitness.merge([trie.prove(key(1))])
        assert isinstance(witness.node, WitnessLeaf) and witness.node_count == 1
        assert witness.proves(trie.root_hash, key(1), b"only")
        assert MembershipWitness.from_bytes(witness.to_bytes()).node == witness.node

    def test_nothing_to_prove_is_refused(self):
        with pytest.raises(ProofError):
            MembershipWitness.merge([])

    def test_proofs_under_two_roots_do_not_merge(self, populated):
        before = populated.prove(key(5))
        populated.set(key(6), b"rewritten")
        with pytest.raises(ProofError, match="not taken under one root"):
            MembershipWitness.merge([before, populated.prove(key(7))])
        # Even when the two proofs only differ below the shared branch:
        # the hash one names for the other's subtree is checked.
        with pytest.raises(ProofError, match="not taken under one root"):
            MembershipWitness.merge([before, populated.prove(key(6))])

    def test_every_bit_flip_is_refused_or_changes_the_root(self, populated, witness):
        wire = witness.to_bytes()
        for bit in range(0, len(wire) * 8, 7):
            flipped = bytearray(wire)
            flipped[bit // 8] ^= 1 << bit % 8
            try:
                forged = MembershipWitness.from_bytes(bytes(flipped))
            except (ProofError, ValueError):
                continue
            # A flip in a leaf's path or value may still decode; it
            # cannot keep the root.
            assert forged.root != populated.root_hash

    @pytest.mark.parametrize("wire, error", [
        pytest.param(b"\x07", "unknown witness node tag", id="tag"),
        # Branch: occupied 0x0001, expanded 0x0003.
        pytest.param(b"\x02\x00\x01\x00\x03\x00",
                     "expands an empty branch slot", id="empty-slot"),
        # Extension whose path encodes no nibble, over a leaf.
        pytest.param(b"\x01\x01\x00" + b"\x00\x01\x00\x00",
                     "extension with an empty path", id="ext-path"),
        # A leaf one nibble down: half a byte of key.
        pytest.param(b"\x00\x02\x01\x10\x00", "ends on a half byte",
                     id="half-byte"),
        # A whole-key leaf, then one byte more.
        pytest.param(b"\x00\x02\x00\xab\x00" + b"\x00", "trailing bytes",
                     id="trailing"),
        pytest.param(b"\x00\x02\x00", "truncated", id="truncated"),
    ])
    def test_malformed_bytes_are_refused(self, wire, error):
        with pytest.raises((ProofError, ValueError), match=error):
            MembershipWitness.from_bytes(wire)

    def test_nesting_deeper_than_a_key_is_refused(self):
        """Each nested node walks at least one nibble, so bounding the
        walk at a 32-byte key bounds the decoder's recursion."""
        extension = b"\x01\x02\x01\x10"   # one nibble
        leaf = b"\x00\x01\x00\x00"
        MembershipWitness.from_bytes(extension * 64 + leaf)
        with pytest.raises(ProofError, match="deeper than a key is long"):
            MembershipWitness.from_bytes(extension * 65 + leaf)
        with pytest.raises(ProofError, match="deeper than a key is long"):
            MembershipWitness.from_bytes(extension * 100_000)

    def test_a_key_cannot_be_named_twice(self, witness):
        """Slots are named by bitmap position, not by a listed index,
        so no byte string decodes to two leaves at one key: whatever
        decodes re-encodes to itself, one entry per leaf."""
        def leaves(node):
            if isinstance(node, WitnessLeaf):
                return 1
            if isinstance(node, WitnessExtension):
                return leaves(node.child)
            return sum(leaves(slot) for slot in node.slots
                       if slot is not None and not isinstance(slot, bytes))

        wire = witness.to_bytes()
        decoded = MembershipWitness.from_bytes(wire)
        assert decoded.to_bytes() == wire
        assert leaves(decoded.node) == len(decoded.entries) == len(self.KEYS)


class TestNonMembershipProofs:
    def test_absent_key_proof_verifies(self, populated):
        proof = populated.prove_absence(key(1000))
        assert verify_non_membership(populated.root_hash, proof)

    def test_empty_trie_absence(self):
        trie = SealableTrie()
        proof = trie.prove_absence(key(1))
        assert verify_non_membership(trie.root_hash, proof)

    def test_absence_proof_binds_key(self, populated):
        proof = populated.prove_absence(key(1000))
        forged = NonMembershipProof(key=key(5), steps=proof.steps, evidence=proof.evidence)
        assert not verify_non_membership(populated.root_hash, forged)

    def test_present_key_cannot_prove_absent(self, populated):
        with pytest.raises(TrieError):
            populated.prove_absence(key(5))

    def test_absence_proof_fails_on_wrong_root(self, populated):
        proof = populated.prove_absence(key(1000))
        assert not verify_non_membership(Hash.of(b"other"), proof)

    def test_many_absent_keys(self, populated):
        for i in range(500, 540):
            proof = populated.prove_absence(key(i))
            assert verify_non_membership(populated.root_hash, proof), i

    def test_serialization_roundtrip(self, populated):
        proof = populated.prove_absence(key(1000))
        restored = NonMembershipProof.from_bytes(proof.to_bytes())
        assert restored == proof
        assert verify_non_membership(populated.root_hash, restored)

    def test_divergent_leaf_evidence(self):
        # Two keys sharing a long prefix force a divergent-leaf terminal.
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        absent = b"\x00" * 31 + b"\x01"
        proof = trie.prove_absence(absent)
        assert verify_non_membership(trie.root_hash, proof)

    def test_empty_trie_proof_rejected_for_nonempty_root(self, populated):
        empty = SealableTrie()
        proof = empty.prove_absence(key(1))
        assert not verify_non_membership(populated.root_hash, proof)


class TestProofsAndSealing:
    def test_absence_beside_sealed_leaf_is_provable(self):
        """A sealed leaf stub keeps its path and value commitment, so a
        probe that diverges from it yields divergent-leaf evidence —
        absence stays provable after sealing."""
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        trie.set(b"\xff" * 32, b"w")
        trie.seal(b"\x00" * 32)
        proof = trie.prove_absence(b"\x00" * 31 + b"\x01")
        assert verify_non_membership(trie.root_hash, proof)

    def test_absence_of_sealed_key_itself_raises(self):
        """The sealed key is *present* (its commitment is retained); a
        non-membership claim for it must be refused, not proven."""
        trie = SealableTrie()
        trie.set(b"\x00" * 32, b"v")
        trie.set(b"\xff" * 32, b"w")
        trie.seal(b"\x00" * 32)
        with pytest.raises(SealedNodeError):
            trie.prove_absence(b"\x00" * 32)

    def test_old_proof_survives_sealing(self):
        """Sealing must not invalidate previously issued proofs — the
        commitment is unchanged (§III-A)."""
        trie = SealableTrie()
        for i in range(32):
            trie.set(key(i), b"v")
        proofs = [trie.prove(key(i)) for i in range(32)]
        root = trie.root_hash
        for i in range(16):
            trie.seal(key(i))
        assert trie.root_hash == root
        for proof in proofs:
            assert verify_membership(trie.root_hash, proof)


class TestProofsFollowTheRoot:
    """``prove`` / ``prove_absence`` are the walk itself — the trie keeps
    no proof between calls — so a write can leave no stale proof behind:
    each proof binds the root it was walked under."""

    def test_a_write_retires_every_older_proof(self, populated):
        old_root = populated.root_hash
        before = [populated.prove(key(i)) for i in range(6)]
        absent_before = populated.prove_absence(key(1000))
        # Re-proving with no write in between regenerates the same bytes.
        assert populated.prove(key(0)).to_bytes() == before[0].to_bytes()
        assert (populated.prove_absence(key(1000)).to_bytes()
                == absent_before.to_bytes())
        # A mutation rebuilds only the touched path (cached sibling
        # hashes carry over); every proof walked after it still has to
        # bind the new root, and none walked before it may.
        populated.set(key(1), b"updated")
        new_root = populated.root_hash
        assert new_root != old_root
        for i, stale in enumerate(before):
            assert verify_membership(old_root, stale)
            assert not verify_membership(new_root, stale)
            fresh = populated.prove(key(i))
            expected = b"updated" if i == 1 else f"value-{i}".encode()
            assert fresh.value == expected
            assert verify_membership(new_root, fresh)
            assert not verify_membership(old_root, fresh)
        assert not verify_non_membership(new_root, absent_before)
        assert verify_non_membership(new_root, populated.prove_absence(key(1000)))


# ----------------------------------------------------------------------
# The packed form: one fold, one wire form
# ----------------------------------------------------------------------

slot_digests = st.one_of(st.just(bytes(32)),
                         st.binary(min_size=32, max_size=32).filter(any))
branch_values = st.none() | st.binary(max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.lists(slot_digests, min_size=16, max_size=16), st.integers(0, 15),
       st.binary(min_size=32, max_size=32).filter(any), branch_values)
def test_the_packed_fold_is_the_branch_hash(children, index, child, value):
    """Every fold over a packed set (a step around its child, both
    branch evidences, a witness branch of unexpanded slots) hashes what
    ``nodes.branch_hash`` hashes over the 16 slots spelled out."""
    children[index] = child
    reference = branch_hash(children, value)
    bitmap, packed = pack_digests(children)
    siblings = children[:index] + children[index + 1:]
    step = BranchStep(index, *pack_digests(siblings), value)
    assert step.parent_hash(Hash(child)) == reference
    assert EmptySlotEvidence(bitmap, packed, value).node_hash() == reference
    slots = tuple(digest if any(digest) else None for digest in children)
    assert MembershipWitness(WitnessBranch(slots, value)).root == reference
    if value is None:
        assert NoBranchValueEvidence(bitmap, packed).node_hash() == reference


# Short raw keys beside hashed ones: shared prefixes make extensions,
# a key ending where others branch makes a valueless branch to stop at.
_POOL = [hashlib.sha256(bytes([i])).digest() for i in range(4)] + [
    b"\x12\x34", b"\x12\x56", b"\x12\x57", b"\xab\xcd\x01", b"\xab\xcd\x02",
    b"\xab\xce\x01", b"\x50", b"\x51", b"\x52", b"\x60"]
_PROBES = _POOL + [b"\x12", b"\x12\x35", b"\xab\xcd\x11", b"\xab\xdd\x01",
                   b"\x53", b"\x7f", bytes(32)]

_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_POOL),
                  st.binary(min_size=0, max_size=24)),
        st.tuples(st.just("delete"), st.sampled_from(_POOL)),
        st.tuples(st.just("seal"), st.sampled_from(_POOL)),
    ),
    max_size=30,
)


def _trie_after(ops) -> SealableTrie:
    trie = SealableTrie()
    for kind, k, *value in ops:
        try:
            getattr(trie, kind)(k, *value)
        except TrieError:
            pass
    return trie


def _wires(trie: SealableTrie):
    """Every proof the probes yield, as ``(class, object)`` pairs, and
    the witness over every provable probe."""
    proven = []
    for probe in _PROBES:
        for prove, cls in ((trie.prove, MembershipProof),
                           (trie.prove_absence, NonMembershipProof)):
            try:
                proven.append((cls, prove(probe)))
            except TrieError:
                pass  # the other kind, sealed away, or a branch value
    memberships = [p for cls, p in proven if cls is MembershipProof]
    if memberships:
        proven.append((MembershipWitness, MembershipWitness.merge(memberships)))
    return proven


def _padded_wire(item, which: int, groups: int) -> bytes:
    """``item``'s wire with its ``which``-th varint (modulo how many it
    writes) padded by ``groups`` zero groups: the same value, another
    byte string."""
    import repro.trie.proof as proof_module
    write_varint, calls = proof_module.write_varint, []

    def padding_write_varint(out, value):
        start = len(out)
        write_varint(out, value)
        calls.append(None)
        if len(calls) - 1 == which:
            out[-1] |= 0x80
            out += b"\x80" * (groups - 1) + b"\x00"
            assert len(out) > start + 1

    try:
        proof_module.write_varint = lambda out, value: (
            write_varint(out, value), calls.append(None))
        item.to_bytes()
        which %= len(calls)
        calls.clear()
        proof_module.write_varint = padding_write_varint
        return item.to_bytes()
    finally:
        proof_module.write_varint = write_varint


@settings(max_examples=200, deadline=None)
@given(_store_ops, st.integers(0, 1 << 10), st.integers(1, 3))
def test_every_accepted_wire_re_encodes_to_itself(ops, which, groups):
    trie = _trie_after(ops)
    for cls, item in _wires(trie):
        wire = item.to_bytes()
        decoded = cls.from_bytes(wire)
        assert decoded.to_bytes() == wire
        if cls is MembershipWitness:
            assert decoded.node == item.node and decoded.root == trie.root_hash
        else:
            assert decoded == item
        # One wire form per proof: a varint padded with zero groups
        # (``0x81 0x00`` for 1) is refused, not read as its value.
        with pytest.raises((ProofError, ValueError)):
            cls.from_bytes(_padded_wire(item, which, groups))


@pytest.mark.parametrize("flag", [b"\x02", b"\x7f", b"\x81\x00"])
def test_an_optional_value_flag_other_than_0_or_1_is_refused(flag):
    """A branch step's value flag is 0 (no value) or 1 (a value
    follows).  A value behind any other flag, or behind a padded 1, is
    refused: read as the same proof, it would be a second wire form."""
    import repro.trie.proof as proof_module
    from repro.encoding import write_bytes
    trie = SealableTrie()
    for key, value in ((b"\x12", b"branch"), (b"\x12\x34", b"v"), (b"\x12\x56", b"w")):
        trie.set(key, value)
    write_optional = proof_module._write_optional_value

    def bad_flag(out, value):
        if value is None:
            write_optional(out, value)
        else:
            out += flag
            write_bytes(out, value)

    try:
        proof_module._write_optional_value = bad_flag
        wire = trie.prove(b"\x12\x34").to_bytes()
    finally:
        proof_module._write_optional_value = write_optional
    assert wire != trie.prove(b"\x12\x34").to_bytes()
    with pytest.raises((ProofError, ValueError)):
        MembershipProof.from_bytes(wire)


_EVIDENCE_CASES = {
    "empty trie": ([], bytes(32), EmptyTrieEvidence),
    "empty slot": ([("set", b"\x50"), ("set", b"\x51")], b"\x53",
                   EmptySlotEvidence),
    "empty slot of a sealed branch": (
        [("set", b"\x50"), ("set", b"\x51"), ("set", b"\x60"),
         ("seal", b"\x50"), ("seal", b"\x51")], b"\x53", EmptySlotEvidence),
    "no branch value": ([("set", b"\x12\x34"), ("set", b"\x12\x56")], b"\x12",
                        NoBranchValueEvidence),
    "no value at a sealed branch": (
        [("set", b"\x12\x34"), ("set", b"\x12\x56"), ("set", b"\x60"),
         ("seal", b"\x12\x34"), ("seal", b"\x12\x56")], b"\x12",
        NoBranchValueEvidence),
    "divergent leaf": ([("set", b"\x50"), ("set", b"\x60")], b"\x53",
                       DivergentLeafEvidence),
    "divergent sealed leaf": (
        [("set", b"\x50"), ("set", b"\x60"), ("seal", b"\x50")], b"\x53",
        DivergentLeafEvidence),
    "divergent extension": (
        [("set", b"\xab\xcd\x01"), ("set", b"\xab\xcd\x02"), ("set", b"\x60")],
        b"\xab\xdd\x01", DivergentExtensionEvidence),
    "divergent sealed branch": (
        [("set", b"\xab\xcd\x01"), ("set", b"\xab\xcd\x02"), ("set", b"\x60"),
         ("seal", b"\xab\xcd\x01"), ("seal", b"\xab\xcd\x02")],
        b"\xab\xdd\x01", DivergentExtensionEvidence),
}


@pytest.mark.parametrize("case", sorted(_EVIDENCE_CASES))
def test_each_evidence_kind_re_encodes_to_itself(case):
    """The property above over a pool that may miss a kind; here each
    kind, live and through a sealed stub, by name."""
    ops, probe, kind = _EVIDENCE_CASES[case]
    trie = _trie_after([(op, k, b"v") if op == "set" else (op, k)
                        for op, k in ops])
    proof = trie.prove_absence(probe)
    assert type(proof.evidence) is kind
    wire = proof.to_bytes()
    assert NonMembershipProof.from_bytes(wire) == proof
    assert NonMembershipProof.from_bytes(wire).to_bytes() == wire
    assert verify_non_membership(trie.root_hash, proof)


def _zero_slot(bitmap: int, packed: bytes, slot: int) -> tuple[int, bytes]:
    """``(bitmap, packed)`` with clear ``slot`` set to the zero digest:
    the same node, a second spelling."""
    at = 32 * (bitmap & ((1 << slot) - 1)).bit_count()
    return bitmap | 1 << slot, packed[:at] + bytes(32) + packed[at:]


class TestOneWireForm:
    """A bit naming the zero digest is the same node as the bit clear;
    both spellings fold to one root, so the decoder refuses the second
    one and every accepted wire re-encodes to itself."""

    def test_a_step_naming_the_zero_digest_is_refused(self, populated):
        proof = populated.prove(key(5))
        at, step = next((at, step) for at, step in enumerate(proof.steps)
                        if step.bitmap != (1 << 15) - 1)
        free = next(slot for slot in range(15) if not step.bitmap >> slot & 1)
        steps = list(proof.steps)
        steps[at] = BranchStep(step.index, *_zero_slot(
            step.bitmap, step.digests, free), step.value)
        twin = MembershipProof(proof.key, proof.value, tuple(steps), proof.leaf_path)
        assert verify_membership(populated.root_hash, twin)
        assert len(twin.to_bytes()) == len(proof.to_bytes()) + 32
        with pytest.raises(ProofError, match="zero digest"):
            MembershipProof.from_bytes(twin.to_bytes())

    @pytest.mark.parametrize("case", ["empty slot", "no branch value"])
    def test_evidence_naming_the_zero_digest_is_refused(self, case):
        ops, probe, kind = _EVIDENCE_CASES[case]
        trie = _trie_after([(op, k, b"v") for op, k in ops])
        proof = trie.prove_absence(probe)
        evidence = proof.evidence
        # Slot 15 is empty in both branches, and not the probe's slot.
        doubled = _zero_slot(evidence.bitmap, evidence.digests, 15)
        twin = NonMembershipProof(proof.key, proof.steps, (
            EmptySlotEvidence(*doubled, evidence.value) if kind is EmptySlotEvidence
            else NoBranchValueEvidence(*doubled)))
        assert verify_non_membership(trie.root_hash, twin)
        with pytest.raises(ProofError, match="zero digest"):
            NonMembershipProof.from_bytes(twin.to_bytes())

    def test_a_witness_slot_naming_the_zero_digest_is_refused(self):
        trie = SealableTrie()
        for i in range(3):
            trie.set(key(i), b"v")
        witness = MembershipWitness.merge([trie.prove(key(0))])
        top = witness.node
        assert isinstance(top, WitnessBranch) and None in top.slots
        twin = MembershipWitness(WitnessBranch(
            tuple(bytes(32) if slot is None else slot for slot in top.slots),
            top.value))
        assert twin.root == witness.root
        with pytest.raises(ProofError, match="zero digest"):
            MembershipWitness.from_bytes(twin.to_bytes())
