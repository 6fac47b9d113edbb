"""Structural tests for the trie's internals: nibbles, node shapes and
the edge cases of splitting/merging paths."""

import random

import pytest

from repro.crypto.hashing import Hash
from repro.trie import SealableTrie, verify_membership, verify_non_membership
from repro.trie.nibbles import (
    common_prefix_len,
    decode_nibbles,
    encode_nibbles,
    key_to_nibbles,
    nibbles_to_key,
)
from repro.trie.nodes import BranchNode, ExtensionNode, LeafNode, SealedNode


class TestNibbles:
    def test_roundtrip(self):
        key = bytes(range(256))[:40]
        assert nibbles_to_key(key_to_nibbles(key)) == key

    def test_high_nibble_first(self):
        assert key_to_nibbles(b"\xab") == (0xA, 0xB)

    def test_expansion_matches_shift_and_mask(self):
        """The one-pass expansion against the definition, nibble by
        nibble, over the edge keys and a seeded random sample."""
        def reference(key: bytes) -> tuple:
            out = []
            for byte in key:
                out.append(byte >> 4)
                out.append(byte & 0x0F)
            return tuple(out)

        rng = random.Random(15)
        keys = [b"", b"\x00", b"\x0f", b"\xf0", b"\xff", bytes(32), b"\xff" * 32,
                bytes(range(256))]
        keys += [rng.randbytes(rng.randrange(1, 65)) for _ in range(500)]
        for key in keys:
            path = key_to_nibbles(key)
            assert path == reference(key)
            assert all(type(nibble) is int for nibble in path)
            assert nibbles_to_key(path) == key

    def test_odd_pack_rejected(self):
        with pytest.raises(ValueError):
            nibbles_to_key((1, 2, 3))

    def test_common_prefix(self):
        assert common_prefix_len((1, 2, 3), (1, 2, 9)) == 2
        assert common_prefix_len((), (1,)) == 0
        assert common_prefix_len((5,), (5,)) == 1

    @pytest.mark.parametrize("path", [
        (), (1,), (1, 2), (0xF,) * 7, (0, 0, 0),
        (0xF,), (0,), (0xA, 0, 0xF), (0xF,) * 63, (0,) * 63, tuple(range(16)) + (7,)])
    def test_encoding_roundtrip(self, path):
        assert decode_nibbles(encode_nibbles(path)) == path

    def test_parity_distinguishes(self):
        # (1,) vs (1, 0) must encode differently (trailing-zero ambiguity).
        assert encode_nibbles((1,)) != encode_nibbles((1, 0))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_nibbles(b"")
        with pytest.raises(ValueError):
            decode_nibbles(b"\x07\x12")  # bad parity byte
        with pytest.raises(ValueError):
            decode_nibbles(b"\x01\x1f")  # odd with nonzero padding


class TestNodeHashing:
    def test_leaf_hash_binds_path_and_value(self):
        a = LeafNode((1, 2), b"v")
        b = LeafNode((1, 3), b"v")
        c = LeafNode((1, 2), b"w")
        assert len({a.hash(), b.hash(), c.hash()}) == 3

    def test_extension_requires_path(self):
        with pytest.raises(ValueError):
            ExtensionNode((), LeafNode((1,), b"v"))

    def test_branch_validates_slot_count(self):
        with pytest.raises(ValueError):
            BranchNode(children=[None] * 15)

    def test_sealed_preserves_hash(self):
        leaf = LeafNode((1, 2), b"v")
        stub = SealedNode.of_leaf(leaf)
        assert stub.hash() == leaf.hash()
        assert stub.storage_bytes() == 0

    def test_sealed_branch_preserves_hash(self):
        branch = BranchNode()
        branch.children[0] = LeafNode((1,), b"v")
        branch.children[5] = LeafNode((2,), b"w")
        stub = SealedNode.of_branch(branch)
        assert stub.hash() == branch.hash()
        assert stub.storage_bytes() == 0

    def test_opaque_stub_cannot_be_repathed(self):
        stub = SealedNode.opaque(Hash.of(b"subtree"))
        assert stub.hash() == Hash.of(b"subtree")
        with pytest.raises(ValueError):
            stub.with_prefix((1, 2))

    def test_branch_storage_counts_present_children_only(self):
        empty = BranchNode()
        empty_size = empty.storage_bytes()
        two = BranchNode()
        two.children[0] = LeafNode((1,), b"v")
        two.children[5] = LeafNode((2,), b"w")
        assert two.storage_bytes() == empty_size + 2 * 32


class TestSplittingEdgeCases:
    """Keys engineered to exercise every split/merge branch."""

    def test_split_at_first_nibble(self):
        trie = SealableTrie()
        trie.set(b"\x00" + bytes(31), b"a")
        trie.set(b"\xf0" + bytes(31), b"b")
        assert trie.get(b"\x00" + bytes(31)) == b"a"
        assert trie.get(b"\xf0" + bytes(31)) == b"b"

    def test_split_deep_shared_prefix(self):
        trie = SealableTrie()
        base = bytes(31)
        trie.set(base + b"\x00", b"a")
        trie.set(base + b"\x01", b"b")  # diverge at the last nibble
        assert trie.get(base + b"\x00") == b"a"
        assert trie.get(base + b"\x01") == b"b"
        proof = trie.prove(base + b"\x01")
        assert verify_membership(trie.root_hash, proof)

    def test_extension_split_head(self):
        """New key diverges at the first nibble of an extension."""
        trie = SealableTrie()
        trie.set(b"\x11" * 8, b"a")
        trie.set(b"\x11" * 7 + b"\x12", b"b")  # creates an extension
        trie.set(b"\x21" + b"\x11" * 7, b"c")  # diverges immediately
        for key, value in ((b"\x11" * 8, b"a"),
                           (b"\x11" * 7 + b"\x12", b"b"),
                           (b"\x21" + b"\x11" * 7, b"c")):
            assert trie.get(key) == value

    def test_extension_split_middle(self):
        trie = SealableTrie()
        trie.set(b"\xaa\xbb\xcc\x00", b"a")
        trie.set(b"\xaa\xbb\xcc\x11", b"b")
        trie.set(b"\xaa\xbb\x00\x00", b"c")  # splits the shared extension
        for key, value in ((b"\xaa\xbb\xcc\x00", b"a"),
                           (b"\xaa\xbb\xcc\x11", b"b"),
                           (b"\xaa\xbb\x00\x00", b"c")):
            assert trie.get(key) == value

    def test_single_nibble_extension_remainder(self):
        """Splitting an extension whose tail is exactly one nibble must
        re-attach the child directly (no empty extension)."""
        trie = SealableTrie()
        trie.set(b"\xab\x10", b"a")
        trie.set(b"\xab\x20", b"b")   # extension path ends mid-byte
        trie.set(b"\xac\x00", b"c")
        for key, value in ((b"\xab\x10", b"a"), (b"\xab\x20", b"b"),
                           (b"\xac\x00", b"c")):
            assert trie.get(key) == value

    def test_delete_merges_through_extension_chain(self):
        trie = SealableTrie()
        keys = [b"\xaa\xbb\xcc\x00", b"\xaa\xbb\xcc\x11", b"\xaa\x00\x00\x00"]
        for key in keys:
            trie.set(key, b"v")
        trie.delete(keys[1])
        trie.delete(keys[2])
        # Everything collapsed back into a single leaf.
        assert trie.node_count() == 1
        assert trie.get(keys[0]) == b"v"

    def test_absence_proofs_at_every_divergence_kind(self):
        trie = SealableTrie()
        trie.set(b"\xaa\xbb\xcc\x00", b"a")
        trie.set(b"\xaa\xbb\xcc\x11", b"b")
        root = trie.root_hash
        probes = [
            b"\xaa\xbb\xcc\x22",  # empty branch slot
            b"\xaa\xbb\x00\x00",  # diverges inside the extension
            b"\x00\x00\x00\x00",  # diverges at the root
            b"\xaa\xbb\xcc\x01",  # diverges inside a leaf path
        ]
        for probe in probes:
            proof = trie.prove_absence(probe)
            assert verify_non_membership(root, proof), probe.hex()

    def test_root_leaf_replacement(self):
        trie = SealableTrie()
        trie.set(b"ab", b"1")
        trie.delete(b"ab")
        trie.set(b"cd", b"2")
        assert trie.get(b"cd") == b"2"
        assert trie.node_count() == 1

    def test_zero_length_values(self):
        trie = SealableTrie()
        trie.set(b"\x01" * 32, b"")
        assert trie.get(b"\x01" * 32) == b""
        proof = trie.prove(b"\x01" * 32)
        assert verify_membership(trie.root_hash, proof)
