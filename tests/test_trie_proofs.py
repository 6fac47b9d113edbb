"""Unit tests for trie membership / non-membership proofs."""

import hashlib

import pytest

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
from repro.trie.proof import (
    WitnessBranch,
    WitnessExtension,
    WitnessLeaf,
    _decode_hash_set,
    _write_hash_set,
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
    """The occupancy-bitmap encoding of a branch's hashes keeps its
    refusals: it never reads past the buffer and never accepts a bitmap
    wider than the set."""

    def test_round_trip_keeps_slots(self):
        hashes = tuple(Hash.of(bytes([i])) if i % 3 else Hash.zero()
                       for i in range(16))
        for count in (15, 16):
            out = bytearray()
            _write_hash_set(out, hashes[:count])
            present = sum(1 for h in hashes[:count] if h != Hash.zero())
            assert len(out) == 2 + 32 * present
            reader = Reader(bytes(out))
            assert _decode_hash_set(reader, count) == hashes[:count]
            reader.expect_end()

    def test_a_zero_digest_is_an_empty_slot_whoever_built_it(self):
        out = bytearray()
        _write_hash_set(out, (Hash(bytes(32)),) * 16)
        assert bytes(out) == b"\x00\x00"

    @pytest.mark.parametrize("missing", [1, 31, 32, 33, 64])
    def test_truncated_blob_is_refused(self, missing):
        out = bytearray()
        _write_hash_set(out, tuple(Hash.of(bytes([i])) for i in range(15)))
        with pytest.raises(ValueError, match="truncated buffer"):
            _decode_hash_set(Reader(bytes(out[:-missing])), 15)

    def test_truncated_bitmap_is_refused(self):
        with pytest.raises(ValueError, match="truncated buffer"):
            _decode_hash_set(Reader(b"\x7f"), 15)

    def test_bitmap_beyond_the_set_is_refused(self):
        wire = (1 << 15).to_bytes(2, "big") + bytes(32)
        with pytest.raises(ProofError, match="beyond 15"):
            _decode_hash_set(Reader(wire), 15)
        assert len(_decode_hash_set(Reader(wire), 16)) == 16

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
                    if slot is not None and not isinstance(slot, Hash)]
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
                       if slot is not None and not isinstance(slot, Hash))

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
