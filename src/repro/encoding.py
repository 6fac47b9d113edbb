"""Compact deterministic binary encoding helpers.

Proofs, packets and light-client updates travel inside host transactions,
whose 1232-byte size limit is a first-class constraint of the paper (§IV).
These helpers give every subsystem one canonical, compact wire format so
that serialized sizes — and therefore transaction counts and fees — are
meaningful.

The format is minimal: unsigned LEB128 varints, length-prefixed byte
strings, and a cursor-based reader.
"""

from __future__ import annotations

#: Interned encodings of the single-byte varints (0..127).  Most varints
#: on the wire are tags, indices and short lengths, so the common case
#: becomes one tuple lookup with no allocation.
_SMALL_VARINTS = tuple(bytes([n]) for n in range(128))


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128."""
    if 0 <= value < 128:
        return _SMALL_VARINTS[value]
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return encode_varint(len(data)) + data


def encode_str(text: str) -> bytes:
    """Length-prefixed UTF-8 string."""
    return encode_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Zero-copy writers
# ---------------------------------------------------------------------------
# Encoders on hot paths (trie proofs, IBC messages) assemble one shared
# ``bytearray`` via these writers instead of concatenating per-field
# ``bytes`` temporaries; the ``encode_*`` functions above remain for
# call sites where an owned buffer is the point.

def write_varint(out: bytearray, value: int) -> None:
    """Append a LEB128 varint to ``out`` without intermediate objects."""
    if 0 <= value < 128:
        out.append(value)
        return
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_bytes(out: bytearray, data: bytes) -> None:
    """Append a length-prefixed byte string to ``out``."""
    write_varint(out, len(data))
    out += data


def write_str(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string to ``out``."""
    write_bytes(out, text.encode("utf-8"))


class Reader:
    """Cursor-based reader over an immutable buffer.

    Raises :class:`ValueError` on truncated input so that decoding
    failures surface as malformed-message errors rather than silent
    misreads.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read(self, count: int) -> bytes:
        if count < 0 or self._pos + count > len(self._data):
            raise ValueError("truncated buffer")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise ValueError("truncated varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if shift and not byte:
                    # A value has one wire form: no zero groups padding it.
                    raise ValueError("padded varint")
                return result
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")

    def read_bytes(self) -> bytes:
        return self.read(self.read_varint())

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def expect_end(self) -> None:
        if self.remaining:
            raise ValueError(f"{self.remaining} trailing bytes after message")
