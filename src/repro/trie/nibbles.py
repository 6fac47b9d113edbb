"""Nibble-path helpers for the Patricia trie.

Keys are arbitrary byte strings; the trie branches on 4-bit nibbles
(16-way), so a key of ``n`` bytes is a path of ``2n`` nibbles.  Paths are
plain tuples of ints in ``range(16)`` — immutable, hashable and cheap to
slice.
"""

from __future__ import annotations

from binascii import hexlify, unhexlify
from functools import lru_cache

Nibbles = tuple[int, ...]

#: Maps each ASCII hex digit to its value, so key expansion is one
#: C-level pass: hexlify, translate, ``tuple`` (keys are hashed to 32
#: bytes, and every trie read, write, seal and proof expands one).
_HEX_DIGIT_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_HEX_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


def key_to_nibbles(key: bytes) -> Nibbles:
    """Expand a byte string into its nibble path (high nibble first).

    Not memoized: sequenced keys are touched a handful of times each, so
    a cache large enough to hit pins every key ever written.
    """
    return tuple(hexlify(key).translate(_HEX_DIGIT_VALUES))


def nibbles_to_key(path: Nibbles) -> bytes:
    """Pack an even-length nibble path back into bytes."""
    if len(path) % 2:
        raise ValueError("cannot pack an odd number of nibbles into bytes")
    # The inverse C-level pass; anything past 15 is no hex digit.
    return unhexlify(bytes(path).translate(_HEX_DIGITS))


def common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    """Length of the longest common prefix of two nibble paths."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


@lru_cache(maxsize=65_536)
def encode_nibbles(path: Nibbles) -> bytes:
    """Canonical byte encoding of a nibble path (for hashing/wire).

    One header byte carries the parity; nibbles are then packed two per
    byte with a zero pad when odd.  The parity byte keeps e.g. ``(1,)``
    and ``(1, 0)`` distinct.

    Interned: node rebuilds along a mutated path re-encode the same
    (immutable) path tuples on every hash, and the pool of distinct
    paths in a trie is small relative to how often each is encoded.
    """
    header = bytes([len(path) % 2])
    padded = path if len(path) % 2 == 0 else path + (0,)
    return header + nibbles_to_key(padded)


def encoded_nibbles_len(path: Nibbles) -> int:
    """``len(encode_nibbles(path))`` without building the bytes.

    Storage accounting needs only the length; the header byte plus two
    nibbles per byte (odd paths pad) gives ``1 + (n + 1) // 2``.
    """
    return 1 + (len(path) + 1) // 2


def decode_nibbles(data: bytes) -> Nibbles:
    """Inverse of :func:`encode_nibbles`."""
    if not data:
        raise ValueError("empty nibble encoding")
    odd = data[0]
    if odd not in (0, 1):
        raise ValueError("bad nibble-path parity byte")
    path = key_to_nibbles(data[1:])
    if odd:
        if path and path[-1] != 0:
            raise ValueError("bad nibble-path padding")
        path = path[:-1]
    return path
