"""Instruction encoding for the Guest Contract.

Every interaction with the Guest Contract travels as a host instruction:
one opcode byte followed by the operation's canonically encoded payload.
The payload of every opcode is declared once, in :data:`FIELDS`, and
written and read by :func:`encode` and :func:`decode` alone; the two
payloads with structure of their own (EVIDENCE's inner report, the batch
a BATCH_EXEC runs) and the staged :class:`BufferedPacketMsg` have their
builder and parser side by side below.  The named builders are one-line
wrappers for callers; :mod:`repro.guest.api` wraps them into whole host
transactions, and no other module of the package touches the codec.
docs/PROTOCOL.md §8 is this table in prose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.keys import PublicKey, Signature
from repro.encoding import (
    Reader,
    encode_bytes,
    encode_varint,
    write_bytes,
    write_str,
    write_varint,
)
from repro.errors import ProgramError


class Op(enum.IntEnum):
    """Guest Contract opcodes."""

    SEND_PACKET = 1
    GENERATE_BLOCK = 2
    SIGN_BLOCK = 3
    STAKE = 4
    UNSTAKE = 5
    WITHDRAW_STAKE = 6
    CHUNK = 7
    LC_SIG_BATCH = 8
    LC_FINALIZE = 9
    RECV_EXEC = 10
    ACK_EXEC = 11
    TIMEOUT_EXEC = 12
    CONFIRM_ACK = 13
    EVIDENCE = 14
    HANDSHAKE = 15
    HANDSHAKE_EXEC = 16
    SELF_DESTRUCT = 17
    CLAIM_REWARDS = 18
    BATCH_EXEC = 19
    SIBLING_UPDATE = 20
    ACCOUNTABILITY = 21


# ---------------------------------------------------------------------------
# The wire format: one row per opcode
# ---------------------------------------------------------------------------

#: Field codecs.  LEB128 varint; length-prefixed bytes; length-prefixed
#: UTF-8; a public key's 32 raw bytes; a signature's 64; seconds carried
#: as a varint of whole milliseconds; and a staging buffer id that may be
#: absent (varint 0, or varint 1 then the id).
VARINT, BYTES, TEXT, KEY, SIGNATURE, MILLIS, STAGED = (
    "varint", "bytes", "text", "key32", "sig64", "millis", "staged")

FIELDS: dict[Op, tuple[str, ...]] = {
    Op.SEND_PACKET: (TEXT, TEXT, BYTES, MILLIS),   # port, channel, payload, timeout
    Op.GENERATE_BLOCK: (),
    Op.SIGN_BLOCK: (VARINT, KEY, SIGNATURE),       # height, validator, signature
    Op.STAKE: (KEY, VARINT),                       # validator, lamports
    Op.UNSTAKE: (KEY, VARINT),
    Op.WITHDRAW_STAKE: (KEY,),
    Op.CHUNK: (VARINT, VARINT, VARINT, BYTES),     # buffer id, index, total, data
    Op.LC_SIG_BATCH: (VARINT,),                    # buffer id
    Op.LC_FINALIZE: (VARINT, VARINT),              # buffer id, signature batches
    Op.RECV_EXEC: (VARINT,),                       # buffer id, here and below
    Op.ACK_EXEC: (VARINT,),
    Op.TIMEOUT_EXEC: (VARINT,),
    Op.CONFIRM_ACK: (TEXT, TEXT, VARINT),          # port, channel, sequence
    Op.EVIDENCE: (VARINT, BYTES),                  # kind, evidence_payload()
    Op.HANDSHAKE: (BYTES,),                        # the datagram, inline
    Op.HANDSHAKE_EXEC: (VARINT,),
    Op.SELF_DESTRUCT: (),
    Op.CLAIM_REWARDS: (KEY,),
    Op.BATCH_EXEC: (STAGED, BYTES),                # staged head's buffer, tail
    Op.SIBLING_UPDATE: (TEXT, VARINT),             # client id, height
    Op.ACCOUNTABILITY: (VARINT,),
}


def encode(op: Op, *values) -> bytes:
    """The instruction ``op`` with ``values`` for its fields."""
    out = bytearray((op,))
    for kind, value in zip(FIELDS[op], values, strict=True):
        if kind is VARINT:
            write_varint(out, value)
        elif kind is BYTES:
            write_bytes(out, value)
        elif kind is TEXT:
            write_str(out, value)
        elif kind is MILLIS:
            write_varint(out, round(value * 1000))
        elif kind is STAGED:
            if value is None:
                out.append(0)
            else:
                out.append(1)
                write_varint(out, value)
        else:  # KEY, SIGNATURE: their types fix the width
            out += bytes(value)
    return bytes(out)


def decode(op: int, payload: bytes) -> list:
    """The field values of an ``op`` instruction's payload (what follows
    the opcode byte); refuses a truncated payload and trailing bytes."""
    reader = Reader(payload)
    values = []
    for kind in FIELDS[op]:
        if kind is VARINT:
            values.append(reader.read_varint())
        elif kind is BYTES:
            values.append(reader.read_bytes())
        elif kind is TEXT:
            values.append(reader.read_str())
        elif kind is KEY:
            values.append(PublicKey(reader.read(32)))
        elif kind is SIGNATURE:
            values.append(Signature(reader.read(64)))
        elif kind is MILLIS:
            values.append(reader.read_varint() / 1000.0)
        else:  # STAGED
            flag = reader.read_varint()
            if flag > 1:
                raise ProgramError(f"unknown batch staging flag {flag}")
            values.append(reader.read_varint() if flag else None)
    reader.expect_end()
    return values


# ---------------------------------------------------------------------------
# Named builders (client side)
# ---------------------------------------------------------------------------

def send_packet(port: str, channel: str, payload: bytes, timeout_timestamp: float) -> bytes:
    return encode(Op.SEND_PACKET, port, channel, payload, timeout_timestamp)


def generate_block() -> bytes:
    return encode(Op.GENERATE_BLOCK)


def sibling_update(client_id: str, height: int) -> bytes:
    """Adopt a finalised height of a sibling guest into its local light
    client (idempotent; prepended to cross-guest delivery bundles)."""
    return encode(Op.SIBLING_UPDATE, client_id, height)


def sign_block(height: int, public_key: PublicKey, signature: Signature) -> bytes:
    return encode(Op.SIGN_BLOCK, height, public_key, signature)


def stake(public_key: PublicKey, lamports: int) -> bytes:
    return encode(Op.STAKE, public_key, lamports)


def unstake(public_key: PublicKey, lamports: int) -> bytes:
    return encode(Op.UNSTAKE, public_key, lamports)


def withdraw_stake(public_key: PublicKey) -> bytes:
    return encode(Op.WITHDRAW_STAKE, public_key)


def chunk(buffer_id: int, index: int, total: int, data: bytes) -> bytes:
    return encode(Op.CHUNK, buffer_id, index, total, data)


def lc_sig_batch(buffer_id: int) -> bytes:
    """The signatures themselves ride as precompile entries on the same
    transaction; the instruction only names the buffer to credit."""
    return encode(Op.LC_SIG_BATCH, buffer_id)


def lc_finalize(buffer_id: int, batches: int) -> bytes:
    """Ask for the update staged in ``buffer_id`` to be adopted once all
    its chunks and ``batches`` signature batches are there — by this
    transaction if they already are, by whichever lands last if not."""
    return encode(Op.LC_FINALIZE, buffer_id, batches)


def recv_exec(buffer_id: int) -> bytes:
    """Run the packet staged in ``buffer_id``; the other staged rows
    (ACK / TIMEOUT / HANDSHAKE_EXEC, ACCOUNTABILITY) are the same one
    field, built with :func:`encode` where they are shipped."""
    return encode(Op.RECV_EXEC, buffer_id)


def confirm_ack(port: str, channel: str, sequence: int) -> bytes:
    return encode(Op.CONFIRM_ACK, port, channel, sequence)


def handshake(msg_bytes: bytes) -> bytes:
    """An IBC handshake message small enough to ride inline."""
    return encode(Op.HANDSHAKE, msg_bytes)


def self_destruct() -> bytes:
    """§VI-A: release all stake after prolonged chain inactivity."""
    return encode(Op.SELF_DESTRUCT)


def claim_rewards(public_key: PublicKey) -> bytes:
    """Withdraw a validator's accrued signing rewards; the transaction
    must carry a runtime-verified signature over the claim message."""
    return encode(Op.CLAIM_REWARDS, public_key)


def claim_message(public_key: PublicKey, payer_address: bytes) -> bytes:
    """What a validator signs to authorise paying its rewards to
    ``payer_address`` (prevents reward theft by third parties)."""
    return b"claim-rewards" + bytes(public_key) + payer_address


# ---------------------------------------------------------------------------
# Fisherman evidence (§III-C)
# ---------------------------------------------------------------------------

def evidence(offender: PublicKey, height: int, fingerprint: bytes) -> bytes:
    """Report ``offender``'s signature over a block-sign message
    ``(height, fingerprint)`` the chain does not have (kind 1, the only
    kind there is); the signature rides as a precompile entry."""
    payload = bytearray(bytes(offender))
    write_varint(payload, height)
    write_bytes(payload, fingerprint)
    return encode(Op.EVIDENCE, 1, bytes(payload))


def read_evidence_payload(payload: bytes) -> tuple[PublicKey, int, bytes]:
    """The ``(offender, height, fingerprint)`` of an EVIDENCE payload."""
    reader = Reader(payload)
    report = (PublicKey(reader.read(32)), reader.read_varint(),
              reader.read_bytes())
    reader.expect_end()
    return report


# ---------------------------------------------------------------------------
# Batched packet execution (relayer-side coalescing)
# ---------------------------------------------------------------------------

def batch_exec(buffer_id: Optional[int], tail: bytes) -> bytes:
    """Run one batch payload: what CHUNK transactions staged into
    ``buffer_id`` (``None`` when the payload fits this transaction)
    followed by ``tail``.

    The Guest Contract refuses a malformed payload whole, before it
    touches anything; the entries of a sound one then run in order
    within this host transaction, each succeeding or failing on its own
    (the proof checks run *before* any store mutation, so one bad entry
    never poisons its neighbours)."""
    return encode(Op.BATCH_EXEC, buffer_id, tail)


def batch_payload(witnesses: Sequence[tuple[int, bytes]],
                  entries: Sequence[bytes]) -> bytes:
    """The bytes a BATCH_EXEC runs: one membership witness per proof
    height (``(height, witness bytes)``), then the entries — each an
    exec opcode byte and a :class:`BufferedPacketMsg` whose proof is
    empty where the height's witness proves it (recv, ack) and its own
    absence proof otherwise (timeout)."""
    if not entries:
        raise ValueError("empty batch")
    out = bytearray(encode_varint(len(witnesses)))
    for height, witness in witnesses:
        out += encode_varint(height)
        out += encode_bytes(witness)
    out += encode_varint(len(entries))
    out += b"".join(entries)
    return bytes(out)


def read_batch_payload(data: bytes) -> tuple[
        dict[int, bytes], list[tuple[int, "BufferedPacketMsg"]]]:
    """Inverse of :func:`batch_payload`: ``{height: witness bytes}`` and
    ``[(opcode, message)]``."""
    reader = Reader(data)
    witnesses: dict[int, bytes] = {}
    for _ in range(reader.read_varint()):
        height = reader.read_varint()
        if height in witnesses:
            raise ValueError(f"two witnesses for height {height}")
        witnesses[height] = reader.read_bytes()
    entries = [(reader.read(1)[0], BufferedPacketMsg.read(reader))
               for _ in range(reader.read_varint())]
    reader.expect_end()
    return witnesses, entries


# ---------------------------------------------------------------------------
# Shared payload container for buffered packet operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BufferedPacketMsg:
    """The staged bytes a RECV/ACK/TIMEOUT exec instruction consumes:
    packet + proof + proof height (+ ack bytes for ACK_EXEC).  As a
    batch entry, a recv or ack carries no proof of its own."""

    packet_bytes: bytes
    proof_bytes: bytes
    proof_height: int
    ack_bytes: bytes = b""

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += encode_bytes(self.packet_bytes)
        out += encode_bytes(self.proof_bytes)
        out += encode_varint(self.proof_height)
        out += encode_bytes(self.ack_bytes)
        return bytes(out)

    @classmethod
    def read(cls, reader: Reader) -> "BufferedPacketMsg":
        return cls(
            packet_bytes=reader.read_bytes(),
            proof_bytes=reader.read_bytes(),
            proof_height=reader.read_varint(),
            ack_bytes=reader.read_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BufferedPacketMsg":
        reader = Reader(data)
        msg = cls.read(reader)
        reader.expect_end()
        return msg
