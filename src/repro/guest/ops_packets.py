"""Packet handlers: Alg. 1's SendPacket and ReceivePacket, ack and
timeout processing, the batch that runs many of them in one transaction,
ack sealing, and the IBC datagrams that set a link up (handshakes,
sibling-guest client updates).

The staged rows (RECV / ACK / TIMEOUT_EXEC, HANDSHAKE_EXEC) receive the
bytes of the payer's consumed buffer; BATCH_EXEC reads its buffer itself
because it must not consume it before every refusal is behind it.
"""

from __future__ import annotations

from repro.errors import ProgramError, ReproError
from repro.guest.instructions import BufferedPacketMsg, Op, read_batch_payload
from repro.guest.ops_staging import held_buffer
from repro.host.programs import InvokeContext
from repro.ibc.identifiers import ChannelId, ClientId, PortId
from repro.ibc.messages import apply_handshake, decode_handshake
from repro.ibc.packet import Acknowledgement, Packet
from repro.trie.proof import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
)

#: Trie nodes charged per batch entry for the store writes it makes (the
#: ``+ 8`` of a single RECV_EXEC); its proof is charged with the witness.
_BATCH_ENTRY_TRIE_NODES = 8


def send_packet(contract, ctx: InvokeContext, port: str, channel: str,
                payload: bytes, timeout: float) -> None:
    port, channel = PortId(port), ChannelId(channel)
    config = contract.config
    fee = config.send_fee_lamports + config.send_fee_per_byte * len(payload)
    ctx.transfer(ctx.payer, contract.treasury, fee)  # collect_fees (Alg. 1 l.7)
    ctx.meter.charge_hash(len(payload))
    ctx.meter.charge_trie_nodes(16)
    # It refuses (a closed channel, a passed deadline) before it mutates.
    packet = contract.ibc.send_packet(port, channel, payload, timeout)
    contract.fees_collected += fee
    contract._undistributed_fees += fee
    trace = ctx.chain.sim.trace
    trace.count("guest.packets.sent")
    # Phase 1 of the Fig. 2 decomposition: committed -> included in a
    # generated guest block (closed by GENERATE_BLOCK).
    trace.begin("packet.block_wait", key=packet.sequence, actor="guest")
    ctx.emit("PacketCommitted", guest=contract.chain_id,
             height_hint=contract.head.height + 1,
             sequence=packet.sequence, channel=str(channel))


def recv_exec(contract, ctx: InvokeContext, staged: bytes) -> None:
    msg = BufferedPacketMsg.from_bytes(staged)
    proof = MembershipProof.from_bytes(msg.proof_bytes)
    ctx.meter.charge_hash(len(msg.proof_bytes))
    ctx.meter.charge_trie_nodes(2 * len(proof.steps) + 8)
    _recv(contract, ctx, msg, proof)


def ack_exec(contract, ctx: InvokeContext, staged: bytes) -> None:
    msg = BufferedPacketMsg.from_bytes(staged)
    proof = MembershipProof.from_bytes(msg.proof_bytes)
    ctx.meter.charge_hash(len(msg.proof_bytes))
    _ack(contract, ctx, msg, proof)


def timeout_exec(contract, ctx: InvokeContext, staged: bytes) -> None:
    _timeout(contract, ctx, BufferedPacketMsg.from_bytes(staged))


def _recv(contract, ctx: InvokeContext, msg: BufferedPacketMsg,
          proof: MembershipProof | MembershipWitness) -> None:
    """Alg. 1's ReceivePacket body over one decoded message, proven
    by its own path or by its height's witness."""
    packet = Packet.from_bytes(msg.packet_bytes)
    ack = contract.ibc.recv_packet(packet, proof, msg.proof_height,
                                   local_time=ctx.unix_time)
    ctx.emit("PacketReceived", guest=contract.chain_id,
             height_hint=contract.head.height + 1,
             sequence=packet.sequence,
             channel=str(packet.destination_channel),
             ack_success=ack.success, packet=packet,
             ack_bytes=ack.to_bytes())


def _ack(contract, ctx: InvokeContext, msg: BufferedPacketMsg,
         proof: MembershipProof | MembershipWitness) -> None:
    packet = Packet.from_bytes(msg.packet_bytes)
    ack = Acknowledgement.from_bytes(msg.ack_bytes)
    contract.ibc.acknowledge_packet(packet, ack, proof, msg.proof_height)
    ctx.emit("PacketAcknowledged", guest=contract.chain_id,
             sequence=packet.sequence,
             channel=str(packet.source_channel))


def _timeout(contract, ctx: InvokeContext, msg: BufferedPacketMsg) -> None:
    packet = Packet.from_bytes(msg.packet_bytes)
    proof = NonMembershipProof.from_bytes(msg.proof_bytes)
    ctx.meter.charge_hash(len(msg.proof_bytes))
    contract.ibc.timeout_packet(packet, proof, msg.proof_height)
    ctx.emit("PacketTimedOut", guest=contract.chain_id,
             sequence=packet.sequence,
             channel=str(packet.source_channel))


_PROVEN_BY_WITNESS = {Op.RECV_EXEC: _recv, Op.ACK_EXEC: _ack}


def batch_exec(contract, ctx: InvokeContext, buffer_id, tail: bytes) -> None:
    """Process a relayer-coalesced batch of packet operations.

    Every refusal comes before the first mutation: the host rolls a
    failed transaction's *accounts* back, not this program's Python
    state.  So the staging buffer is read without being consumed,
    the whole payload is decoded and every witness folded and
    charged — per byte hashed and per distinct node — and only then
    is the buffer deleted and the entries run.  They run in order
    with per-entry error isolation: every IBC handler raises before
    it mutates the store, so a failed entry (a witness that does not
    fold to the client's root or does not hold the key, a duplicate
    delivery, an expired packet) leaves the state untouched and its
    neighbours unaffected.  One bad packet must not hold N-1 good
    ones hostage — and a duplicate re-queued by a competing relayer
    must not poison the batch.
    """
    staged = buffer_id is not None
    payload = (held_buffer(contract, ctx.payer, buffer_id).assembled()
               if staged else b"") + tail
    witness_bytes, entries = read_batch_payload(payload)
    if not entries:
        raise ProgramError("empty batch")
    trace = ctx.chain.sim.trace
    witnesses: dict[int, MembershipWitness] = {}
    try:
        for height, raw in witness_bytes.items():
            ctx.meter.charge_hash(len(raw))
            witness = witnesses[height] = MembershipWitness.from_bytes(raw)
            ctx.meter.charge_trie_nodes(witness.node_count)
            trace.observe("guest.batch.witness_nodes", witness.node_count)
    except (ReproError, ValueError):
        trace.count("guest.batch.witnesses_refused")
        raise
    for kind, msg in entries:
        if kind in _PROVEN_BY_WITNESS and msg.proof_height not in witnesses:
            raise ProgramError(
                f"batch entry at height {msg.proof_height} has no witness")
    ctx.meter.charge_trie_nodes(_BATCH_ENTRY_TRIE_NODES * len(entries))
    if staged:
        del contract._buffers[(ctx.payer, buffer_id)]

    failures: list[tuple[int, int, str]] = []
    for index, (kind, msg) in enumerate(entries):
        try:
            if kind in _PROVEN_BY_WITNESS:
                _PROVEN_BY_WITNESS[kind](
                    contract, ctx, msg, witnesses[msg.proof_height])
            elif kind == Op.TIMEOUT_EXEC:
                _timeout(contract, ctx, msg)
            else:
                failures.append((index, kind, f"opcode {kind} not batchable"))
        except (ReproError, ValueError) as exc:
            failures.append((index, kind, str(exc)))
    count = len(entries)
    trace.count("guest.batch.instructions")
    trace.count("guest.batch.entries", count)
    trace.count("guest.batch.entries_failed", len(failures))
    trace.observe("guest.batch.size", count)
    ctx.emit("BatchProcessed", guest=contract.chain_id, total=count,
             ok=count - len(failures), failures=tuple(failures))


def confirm_ack(contract, ctx: InvokeContext, port: str, channel: str,
                sequence: int) -> None:
    contract.ibc.confirm_ack(PortId(port), ChannelId(channel), sequence)
    ctx.chain.sim.trace.count("guest.acks.sealed")


def handshake(contract, ctx: InvokeContext, msg_bytes: bytes) -> None:
    """One IBC handshake datagram, inline or from the payer's buffer."""
    msg = decode_handshake(msg_bytes)
    ctx.meter.charge_hash(len(msg_bytes))
    created = apply_handshake(contract.ibc, msg)
    # The payer lets each relayer pick out the steps of its own
    # datagrams when several shake hands on this guest; the height names
    # the block that commits the step, which its proof is made against.
    ctx.emit("HandshakeStep", guest=contract.chain_id, payer=ctx.payer,
             height_hint=contract.head.height + 1,
             kind=type(msg).__name__, created=created)


def sibling_update(contract, ctx: InvokeContext, client_id: str,
                   height: int) -> None:
    """Adopt a finalised sibling-guest height into its local client.

    Idempotent on purpose: relayers prepend this to delivery bundles
    (atomic update-then-prove), and a bundle must not fail because a
    competing relayer adopted the height first.
    """
    client = contract.sibling_clients.get(ClientId(client_id))
    if client is None:
        raise ProgramError(f"{client_id} is not a sibling-guest client")
    ctx.meter.charge_hash(64)
    ctx.meter.charge_trie_nodes(4)
    fresh = client.adopt(height)
    if fresh:
        ctx.chain.sim.trace.count("guest.sibling.updates")
    ctx.emit("SiblingClientUpdated", guest=contract.chain_id,
             client=client_id, height=height, fresh=fresh)
