"""Unit tests for repro.crypto.hashing."""

import hashlib

import pytest

from repro.crypto.hashing import (
    Hash, framed, framed_digests, hash_bytes, hash_concat, merkle_root,
)


class TestHash:
    def test_of_matches_sha256(self):
        assert Hash.of(b"hello").value == hashlib.sha256(b"hello").digest()

    def test_zero_is_32_zero_bytes(self):
        assert Hash.zero().value == bytes(32)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Hash(b"short")

    def test_rejects_non_bytes(self):
        with pytest.raises(ValueError):
            Hash("0" * 64)  # type: ignore[arg-type]

    def test_equality_and_hashability(self):
        a = Hash.of(b"x")
        b = Hash.of(b"x")
        assert a == b
        assert len({a, b}) == 1

    def test_bytes_roundtrip(self):
        h = Hash.of(b"data")
        assert Hash(bytes(h)) == h

    def test_hex_and_short(self):
        h = Hash.of(b"data")
        assert h.hex() == h.value.hex()
        assert h.hex().startswith(h.short())


class TestHashConcat:
    def test_deterministic(self):
        assert hash_concat(b"a", b"b") == hash_concat(b"a", b"b")

    def test_split_resistant(self):
        # Length prefixes must make different splits hash differently.
        assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")

    def test_accepts_hash_parts(self):
        h = hash_bytes(b"inner")
        assert hash_concat(h, b"x") == hash_concat(bytes(h), b"x")

    def test_order_matters(self):
        assert hash_concat(b"a", b"b") != hash_concat(b"b", b"a")

    @pytest.mark.parametrize("parts", [
        (),
        (b"",),
        (hash_bytes(b"only"),),
        (b"\x02", *[hash_bytes(bytes([i])) for i in range(16)], b"\xff"),
        (b"\x00", b"\x01\x23", hash_bytes(b"commitment")),
        (hash_bytes(b"a"), b"x" * 255, hash_bytes(b"b"), b"y" * 256, b"z" * 70_000),
        (bytearray(b"mutable"), Hash.zero(), memoryview(b"view")),
        (bytes(32), Hash.zero()),
    ])
    def test_matches_the_literal_framing(self, parts):
        """``len(part)`` as 4 big-endian bytes, then the part, for every
        part in order — whatever mix of digests, short and long byte
        strings the call carries."""
        preimage = b""
        for part in parts:
            raw = bytes(part)
            preimage += len(raw).to_bytes(4, "big") + raw
        assert hash_concat(*parts) == Hash(hashlib.sha256(preimage).digest())


    @pytest.mark.parametrize("count", [1, 2, 15, 16])
    def test_a_digest_run_frames_as_its_parts(self, count):
        """The one-join framing of a run of 32-byte digests is the part
        by part framing of the same digests."""
        digests = [hash_bytes(bytes([i])).value for i in range(count)]
        digests[0] = bytes(32)
        assert framed_digests(digests) == framed(*digests)


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert merkle_root([]) == Hash.zero()

    def test_single_leaf_not_raw_hash(self):
        # Domain separation: leaf hashing differs from plain sha256.
        root = merkle_root([b"leaf"])
        assert root.value != hashlib.sha256(b"leaf").digest()

    def test_order_sensitivity(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_odd_leaf_count(self):
        # Three leaves must produce a root distinct from two or four.
        r3 = merkle_root([b"a", b"b", b"c"])
        r2 = merkle_root([b"a", b"b"])
        assert r3 != r2

    def test_deterministic(self):
        leaves = [bytes([i]) * 4 for i in range(7)]
        assert merkle_root(leaves) == merkle_root(leaves)
