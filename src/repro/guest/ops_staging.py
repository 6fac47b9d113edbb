"""Staging buffers: CHUNK, LC_SIG_BATCH, LC_FINALIZE and the last-lander
rule (the §IV workaround for the host's transaction size).

An oversized message reaches the contract as CHUNK transactions into a
buffer namespaced by ``(payer, buffer_id)`` (``contract._buffers``); a
*staged* row of the op table then consumes it.  A counterparty
light-client update has no exec instruction of its own: whichever of its
transactions lands last adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.keys import PublicKey, Signature
from repro.errors import EquivocationError, GuestError, ProgramError
from repro.host.accounts import Address
from repro.host.programs import InvokeContext
from repro.lightclient.chunked import read_staged_update

#: A staging buffer nothing executed this long after it was opened is an
#: orphan (its relayer crashed mid-wave, or its bundle's exec was
#: refused) and is dropped: well past any update or bundle in flight.
STAGING_BUFFER_TTL_SECONDS = 600.0


@dataclass
class Buffer:
    """A staging buffer for one oversized message."""

    owner: Address
    #: Host time of the transaction that opened it.
    opened_at: float
    #: Fixed by the first CHUNK; 0 while only signature batches have
    #: arrived (the host orders one window's transactions as it likes).
    total_chunks: int = 0
    chunks: dict[int, bytes] = field(default_factory=dict)
    #: Runtime-verified (public key, message) pairs credited so far.
    verified_signers: list[tuple[PublicKey, bytes]] = field(default_factory=list)
    #: The same entries with their raw signatures retained, so the
    #: counterparty client can build accountability proofs on conflict.
    verified_entries: list[tuple[PublicKey, bytes, Signature]] = field(
        default_factory=list)
    #: LC_SIG_BATCH transactions credited so far.
    batches_seen: int = 0
    #: Signature batches the staged light-client update has, once its
    #: LC_FINALIZE has landed; ``None`` until then, and for good on a
    #: buffer that stages anything else.
    finalize_batches: Optional[int] = None

    def is_complete(self) -> bool:
        return 0 < self.total_chunks == len(self.chunks)

    def assembled(self) -> bytes:
        if not self.is_complete():
            raise ProgramError(
                f"buffer has {len(self.chunks)} of {self.total_chunks} chunks"
            )
        return b"".join(self.chunks[i] for i in range(self.total_chunks))

    def byte_size(self) -> int:
        return sum(len(chunk) for chunk in self.chunks.values())


def open_buffer(contract, ctx: InvokeContext, buffer_id: int) -> Buffer:
    key = (ctx.payer, buffer_id)
    buffer = contract._buffers.get(key)
    if buffer is None:
        # Whoever opens a buffer sweeps the orphans out first, so
        # they stop counting against the state account.
        horizon = ctx.unix_time - STAGING_BUFFER_TTL_SECONDS
        for stale in [k for k, b in contract._buffers.items()
                      if b.opened_at < horizon]:
            del contract._buffers[stale]
        buffer = contract._buffers[key] = Buffer(
            owner=ctx.payer, opened_at=ctx.unix_time)
    return buffer


def held_buffer(contract, owner: Address, buffer_id: int) -> Buffer:
    buffer = contract._buffers.get((owner, buffer_id))
    if buffer is None:
        raise ProgramError(f"unknown buffer {buffer_id}")
    return buffer


def consume_buffer(contract, owner: Address, buffer_id: int) -> Buffer:
    buffer = held_buffer(contract, owner, buffer_id)
    del contract._buffers[(owner, buffer_id)]
    return buffer


def chunk(contract, ctx: InvokeContext, buffer_id: int, index: int,
          total: int, data: bytes) -> None:
    if total == 0 or index >= total:
        raise ProgramError(f"bad chunk index {index}/{total}")
    buffer = open_buffer(contract, ctx, buffer_id)
    if buffer.total_chunks == 0:
        buffer.total_chunks = total
    elif buffer.total_chunks != total:
        raise ProgramError("chunk total mismatch across transactions")
    buffer.chunks[index] = data
    ctx.meter.charge_write(len(data))
    _finalize_lc_update_if_last(contract, ctx, buffer_id, buffer)


def lc_sig_batch(contract, ctx: InvokeContext, buffer_id: int) -> None:
    if not ctx.verified_signatures:
        raise ProgramError("no runtime-verified signatures on this transaction")
    # May land before the buffer's first CHUNK: a short update puts
    # both in one submission window, and the host does not promise
    # their order.  Opening the buffer here costs nothing a CHUNK
    # would not; the update is adopted only once every chunk is in.
    buffer = open_buffer(contract, ctx, buffer_id)
    buffer.verified_signers.extend(ctx.verified_signatures)
    buffer.verified_entries.extend(ctx.verified_signature_entries)
    buffer.batches_seen += 1
    _finalize_lc_update_if_last(contract, ctx, buffer_id, buffer)


def lc_finalize(contract, ctx: InvokeContext, buffer_id: int,
                batches: int) -> None:
    # Like a signature batch, it may land before CHUNK 0: a relayer
    # hands the host the whole update at one instant and the host
    # orders it as it likes.
    buffer = open_buffer(contract, ctx, buffer_id)
    buffer.finalize_batches = batches
    _finalize_lc_update_if_last(contract, ctx, buffer_id, buffer)


def _finalize_lc_update_if_last(contract, ctx: InvokeContext, buffer_id: int,
                                buffer: Buffer) -> None:
    """The last-lander rule: the transaction that leaves the payer's
    buffer asked to finalise, holding every chunk and as many
    signature batches as LC_FINALIZE named, adopts the update — so
    CHUNK, LC_SIG_BATCH and LC_FINALIZE all end here, and an update
    is one wave of transactions in any order.  What runs then is
    charged to that transaction; until then nothing is checked and
    the client is untouched."""
    if (buffer.finalize_batches is None or not buffer.is_complete()
            or buffer.batches_seen < buffer.finalize_batches):
        return
    limit = contract.config.lc_min_update_interval
    if limit is not None and contract._last_lc_update_time is not None:
        elapsed = ctx.unix_time - contract._last_lc_update_time
        if elapsed < limit:
            raise GuestError(
                f"light-client rate limit: {elapsed:.0f} s since the "
                f"last update, minimum is {limit:.0f} s (the §VI-C "
                "damage-limitation measure)"
            )
    del contract._buffers[(ctx.payer, buffer_id)]
    client = contract.counterparty_client
    # Whole set or delta against a set the client knows: the staged
    # bytes say which (repro.lightclient.chunked owns the format).
    header, valset, hashed_bytes = read_staged_update(
        buffer.assembled(), client.known_validator_set)
    ctx.meter.charge_hash(hashed_bytes)

    message = header.sign_bytes()
    signers = {
        public_key
        for public_key, signed in buffer.verified_signers
        if signed == message
    }
    signatures = {
        public_key: signature
        for public_key, signed, signature in buffer.verified_entries
        if signed == message
    }
    trace = ctx.chain.sim.trace
    try:
        client.apply_verified(header, signers, valset,
                              signatures=signatures)
    except EquivocationError as exc:
        # Accountable mode: the client froze *and* built an
        # attributable proof.  Land the evidence on chain instead of
        # failing the transaction, so watchers can prosecute the
        # double-signers on the counterparty.
        trace.count("guest.lc.equivocations")
        proof = exc.proof
        ctx.emit("CounterpartyEquivocation", guest=contract.chain_id,
                 height=header.height,
                 proof=b"" if proof is None else proof.to_bytes())
        return
    contract._last_lc_update_time = ctx.unix_time
    trace.count("guest.lc.updates")
    trace.observe("guest.lc.verified_signers", len(signers))
    ctx.emit("CounterpartyClientUpdated", guest=contract.chain_id,
             height=header.height)
