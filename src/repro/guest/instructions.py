"""Instruction encoding for the Guest Contract.

Every interaction with the Guest Contract travels as a host instruction:
one opcode byte followed by the operation's canonically encoded payload.
Builders and parsers live together here so the wire format has a single
source of truth; :mod:`repro.guest.api` wraps the builders into whole
host transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.keys import PublicKey, Signature
from repro.encoding import Reader, encode_bytes, encode_varint


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
# Builders (client side)
# ---------------------------------------------------------------------------

def send_packet(port: str, channel: str, payload: bytes, timeout_timestamp: float) -> bytes:
    out = bytearray([Op.SEND_PACKET])
    out += encode_bytes(port.encode())
    out += encode_bytes(channel.encode())
    out += encode_bytes(payload)
    out += encode_varint(round(timeout_timestamp * 1000))
    return bytes(out)


def generate_block() -> bytes:
    return bytes([Op.GENERATE_BLOCK])


def sibling_update(client_id: str, height: int) -> bytes:
    """Adopt a finalised height of a sibling guest into its local light
    client (idempotent; prepended to cross-guest delivery bundles)."""
    out = bytearray([Op.SIBLING_UPDATE])
    out += encode_bytes(client_id.encode())
    out += encode_varint(height)
    return bytes(out)


def sign_block(height: int, public_key: PublicKey, signature: Signature) -> bytes:
    out = bytearray([Op.SIGN_BLOCK])
    out += encode_varint(height)
    out += bytes(public_key)
    out += bytes(signature)
    return bytes(out)


def stake(public_key: PublicKey, lamports: int) -> bytes:
    out = bytearray([Op.STAKE])
    out += bytes(public_key)
    out += encode_varint(lamports)
    return bytes(out)


def unstake(public_key: PublicKey, lamports: int) -> bytes:
    out = bytearray([Op.UNSTAKE])
    out += bytes(public_key)
    out += encode_varint(lamports)
    return bytes(out)


def withdraw_stake(public_key: PublicKey) -> bytes:
    return bytes([Op.WITHDRAW_STAKE]) + bytes(public_key)


def chunk(buffer_id: int, index: int, total: int, data: bytes) -> bytes:
    out = bytearray([Op.CHUNK])
    out += encode_varint(buffer_id)
    out += encode_varint(index)
    out += encode_varint(total)
    out += encode_bytes(data)
    return bytes(out)


def lc_sig_batch(buffer_id: int) -> bytes:
    """The signatures themselves ride as precompile entries on the same
    transaction; the instruction only names the buffer to credit."""
    return bytes([Op.LC_SIG_BATCH]) + encode_varint(buffer_id)


def lc_finalize(buffer_id: int, batches: int) -> bytes:
    """Ask for the update staged in ``buffer_id`` to be adopted once all
    its chunks and ``batches`` signature batches are there — by this
    transaction if they already are, by whichever lands last if not."""
    return (bytes([Op.LC_FINALIZE]) + encode_varint(buffer_id)
            + encode_varint(batches))


def recv_exec(buffer_id: int) -> bytes:
    return bytes([Op.RECV_EXEC]) + encode_varint(buffer_id)


def ack_exec(buffer_id: int) -> bytes:
    return bytes([Op.ACK_EXEC]) + encode_varint(buffer_id)


def timeout_exec(buffer_id: int) -> bytes:
    return bytes([Op.TIMEOUT_EXEC]) + encode_varint(buffer_id)


def confirm_ack(port: str, channel: str, sequence: int) -> bytes:
    out = bytearray([Op.CONFIRM_ACK])
    out += encode_bytes(port.encode())
    out += encode_bytes(channel.encode())
    out += encode_varint(sequence)
    return bytes(out)


def evidence(kind: int, payload: bytes) -> bytes:
    return bytes([Op.EVIDENCE]) + encode_varint(kind) + encode_bytes(payload)


def accountability(buffer_id: int) -> bytes:
    """Prosecute an equivocation proof staged through CHUNK transactions."""
    return bytes([Op.ACCOUNTABILITY]) + encode_varint(buffer_id)


def handshake(msg_bytes: bytes) -> bytes:
    """An IBC handshake message small enough to ride inline."""
    return bytes([Op.HANDSHAKE]) + encode_bytes(msg_bytes)


def handshake_exec(buffer_id: int) -> bytes:
    """Execute a handshake message staged through CHUNK transactions."""
    return bytes([Op.HANDSHAKE_EXEC]) + encode_varint(buffer_id)


def self_destruct() -> bytes:
    """§VI-A: release all stake after prolonged chain inactivity."""
    return bytes([Op.SELF_DESTRUCT])


def claim_rewards(public_key: PublicKey) -> bytes:
    """Withdraw a validator's accrued signing rewards; the transaction
    must carry a runtime-verified signature over the claim message."""
    return bytes([Op.CLAIM_REWARDS]) + bytes(public_key)


def claim_message(public_key: PublicKey, payer_address: bytes) -> bytes:
    """What a validator signs to authorise paying its rewards to
    ``payer_address`` (prevents reward theft by third parties)."""
    return b"claim-rewards" + bytes(public_key) + payer_address


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
    out = bytearray([Op.BATCH_EXEC])
    if buffer_id is None:
        out += encode_varint(0)
    else:
        out += encode_varint(1)
        out += encode_varint(buffer_id)
    out += encode_bytes(tail)
    return bytes(out)


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
