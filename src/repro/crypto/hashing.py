"""Hashing primitives used across the trie, blocks and IBC commitments.

Everything hashes with SHA-256 (the guest blockchain in the paper likewise
standardises on a single hash).  :class:`Hash` wraps the 32-byte digest in
an immutable value type so call sites cannot confuse digests with raw byte
strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

DIGEST_SIZE = 32


@dataclass(frozen=True, slots=True)
class Hash:
    """An immutable 32-byte SHA-256 digest."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_SIZE:
            raise ValueError(
                f"Hash requires exactly {DIGEST_SIZE} bytes, "
                f"got {len(self.value) if isinstance(self.value, bytes) else type(self.value)}"
            )

    @classmethod
    def of(cls, data: bytes) -> "Hash":
        """Hash ``data`` and wrap the digest."""
        return cls(hashlib.sha256(data).digest())

    @classmethod
    def zero(cls) -> "Hash":
        """The all-zeros digest, used as the empty-trie commitment.

        Returns a shared singleton: zero hashes are compared and embedded
        millions of times per run (every empty branch slot), and
        ``Hash`` construction pays a validation check each call.
        """
        return _ZERO_HASH

    def hex(self) -> str:
        return self.value.hex()

    def short(self) -> str:
        """First 8 hex characters — for logs and reprs."""
        return self.value[:4].hex()

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"Hash({self.short()}…)"


_ZERO_HASH = Hash(bytes(DIGEST_SIZE))

#: Interned length prefixes for the common short parts (tags, digests,
#: small values) so :func:`hash_concat` avoids an ``int.to_bytes`` per
#: part on the trie/commitment hot path.
_LEN_PREFIX_BYTES = 4
_LEN_PREFIXES = tuple(n.to_bytes(_LEN_PREFIX_BYTES, "big") for n in range(256))
_DIGEST_LEN_PREFIX = _LEN_PREFIXES[DIGEST_SIZE]


def hash_bytes(data: bytes) -> Hash:
    """SHA-256 of ``data``."""
    return Hash.of(data)


def framed(*parts: bytes | Hash) -> bytes:
    """The preimage :func:`hash_concat` hashes: every part behind its
    length (4-byte big-endian), so that distinct splits of the same
    bytes cannot collide — e.g. ``(b"ab", b"c")`` and ``(b"a", b"bc")``
    frame differently.  The one place the framing is spelled."""
    pieces: list[bytes] = []
    append = pieces.append
    for part in parts:
        if type(part) is Hash:  # most parts of a trie-node preimage
            append(_DIGEST_LEN_PREFIX)
            append(part.value)
        else:
            raw = bytes(part)
            size = len(raw)
            append(_LEN_PREFIXES[size] if size < 256
                   else size.to_bytes(_LEN_PREFIX_BYTES, "big"))
            append(raw)
    return b"".join(pieces)


def framed_digests(digests: Sequence[bytes]) -> bytes:
    """``framed(*digests)`` for a non-empty run of raw 32-byte digests,
    framed by one join rather than part by part: a trie branch frames
    its 16 slot digests on every rehash and every proof fold."""
    return _DIGEST_LEN_PREFIX + _DIGEST_LEN_PREFIX.join(digests)


def framed_size(*part_sizes: int) -> int:
    """``len(framed(*parts))`` for parts of the given sizes: where a
    part ends in a preimage whose layout is fixed (a caller that patches
    one instead of re-framing it, :meth:`ValidatorSet.replacing_power`)."""
    return sum(part_sizes) + _LEN_PREFIX_BYTES * len(part_sizes)


def hash_concat(*parts: bytes | Hash) -> Hash:
    """SHA-256 over the :func:`framed` concatenation of ``parts``.

    The preimage is assembled with one ``join`` and hashed in a single
    batched call: per-part ``hasher.update`` pairs dominated the trie
    rehash profile (a 17-part branch preimage paid 34 update calls).
    """
    return Hash(hashlib.sha256(framed(*parts)).digest())


def merkle_root(leaves: Iterable[bytes | Hash]) -> Hash:
    """Binary Merkle root over ``leaves`` (duplicating the last odd node).

    Used for the packet list committed into guest block headers; the main
    provable state uses the sealable trie instead.
    """
    level = [bytes(leaf) for leaf in leaves]
    if not level:
        return Hash.zero()
    level = [hashlib.sha256(b"\x00" + leaf).digest() for leaf in level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return Hash(level[0])
