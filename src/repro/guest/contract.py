"""The Guest Contract: Alg. 1 of the paper, as a host program.

The contract is the guest blockchain.  It owns the sealable trie (the
guest's provable state), produces guest blocks, collects validator
signatures until a stake quorum finalises each block, runs the embedded
IBC module, and hosts the chunked Tendermint light client of the
counterparty.  Everything arrives as host instructions under the host
runtime's constraints — transaction size, compute budget, per-signature
fees — which is where the measured costs of §V come from.

Instruction map (see :mod:`repro.guest.instructions`):

=================  =======================================================
``SEND_PACKET``    Alg. 1 ``SendPacket``: collect fees, commit the packet
``GENERATE_BLOCK`` Alg. 1 ``GenerateBlock``: head finalised ∧ (state
                   changed ∨ age ≥ Δ) → new block, ``NewBlock`` event
``SIGN_BLOCK``     Alg. 1 ``Sign``: runtime-verified validator signature;
                   on quorum → ``FinalisedBlock`` event
``CHUNK``          stage bytes of an oversized message into a buffer
``LC_SIG_BATCH``   credit runtime-verified commit signatures to a buffer
``LC_FINALIZE``    ask for a staged counterparty light-client update to be
                   adopted; whichever of its transactions lands last
                   assembles and applies it
``RECV_EXEC``      Alg. 1 ``ReceivePacket`` over a staged packet + proof
``ACK_EXEC``       process a counterparty acknowledgement (staged proof)
``TIMEOUT_EXEC``   cancel an expired packet (staged non-membership proof)
``BATCH_EXEC``     many of the three above in one transaction, the recv
                   and ack entries of a height proven by one witness
``CONFIRM_ACK``    seal a no-longer-needed ack entry (§III-A)
``STAKE`` etc.     §III-B Proof-of-Stake staking pool
``EVIDENCE``       §III-C Fisherman misbehaviour reports → slashing
``ACCOUNTABILITY`` staged equivocation proof → slash the double-signing
                   quorum intersection (docs/ACCOUNTABILITY.md)
=================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.accountability import (
    AccountabilityProof,
    apply_accountability_slash,
    verify_proof,
)
from repro.crypto.hashing import Hash
from repro.crypto.keys import PublicKey, Signature
from repro.encoding import Reader
from repro.errors import (
    AccountabilityError,
    AlreadySignedError,
    EquivocationError,
    GuestError,
    HeadNotFinalisedError,
    ProgramError,
    ReproError,
    StaleBlockError,
    UnknownBlockError,
)
from repro.guest.block import GuestBlock, GuestBlockHeader, sign_message
from repro.guest.config import GuestConfig
from repro.guest.epoch import Epoch
from repro.guest.instructions import BufferedPacketMsg, Op, read_batch_payload
from repro.guest.staking import StakingPool
from repro.host.accounts import Address
from repro.host.programs import InvokeContext, Program
from repro.ibc.apps.transfer import Bank, TransferApp
from repro.ibc.host import IbcHost
from repro.ibc.identifiers import ChannelId, PortId
from repro.ibc.packet import Acknowledgement, Packet
from repro.lightclient.chunked import read_staged_update
from repro.lightclient.tendermint import TendermintLightClient, ValidatorSet
from repro.state.scheduler import EagerScheduler
from repro.trie.proof import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
)
from repro.trie.store import ProvableStore

#: A staging buffer nothing executed this long after it was opened is an
#: orphan (its relayer crashed mid-wave, or its bundle's exec was
#: refused) and is dropped: well past any update or bundle in flight.
STAGING_BUFFER_TTL_SECONDS = 600.0
#: Trie nodes charged per batch entry for the store writes it makes (the
#: ``+ 8`` of a single RECV_EXEC); its proof is charged with the witness.
_BATCH_ENTRY_TRIE_NODES = 8


@dataclass
class _Buffer:
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


class GuestContract(Program):
    """The guest blockchain, deployed as a program on the host chain."""

    def __init__(self, config: GuestConfig, counterparty_chain_id: str,
                 program_id: Optional[Address] = None,
                 namespace: str = "guest",
                 seal_scheduler=None) -> None:
        self.config = config
        #: The guest's chain id *and* its host account namespace.  Every
        #: address the contract owns derives from it, so N guests on one
        #: host never share an account (per-guest fee/state isolation).
        self.namespace = namespace
        self._program_id = program_id or Address.derive(f"{namespace}-contract")
        self.state_account = Address.derive(f"{namespace}-state")
        self.treasury = Address.derive(f"{namespace}-treasury")

        self.store = ProvableStore()
        # Sealing policy is per-operator economics (root-neutral); the
        # default eager policy matches the paper's "seal immediately".
        self.ibc = IbcHost(
            namespace, store=self.store,
            seal_scheduler=(EagerScheduler() if seal_scheduler is None
                            else seal_scheduler))
        self.bank = Bank()
        self.transfer_port = PortId("transfer")
        self.transfer = TransferApp(self.bank, self.transfer_port)
        self.ibc.bind_port(self.transfer_port, self.transfer)

        self.staking = StakingPool(config)
        self.blocks: list[GuestBlock] = []
        self.epochs: dict[int, Epoch] = {}
        self.epochs_by_hash: dict[Hash, Epoch] = {}
        self.current_epoch: Optional[Epoch] = None
        self._epoch_start_slot = 0
        #: Packets committed since the last block, waiting for inclusion.
        self._pending_packets: list[Packet] = []
        self._packets_by_height: dict[int, tuple[Packet, ...]] = {}
        #: Frozen store views per finalised height, for serving proofs.
        self._state_views: dict[int, ProvableStore] = {}
        self._buffers: dict[tuple[Address, int], _Buffer] = {}
        self.counterparty_client = TendermintLightClient(
            counterparty_chain_id,
            ValidatorSet(members=()),
        )
        self.counterparty_client_id = self.ibc.create_client(self.counterparty_client)
        self.ibc.self_client_validator = self._validate_claim_about_guest
        self.fees_collected = 0
        #: Packet fees awaiting distribution at the next finalisation.
        self._undistributed_fees = 0
        #: Proof ids already prosecuted (double-prosecution protection).
        self.prosecuted_proofs: set[bytes] = set()
        #: One record per accepted ACCOUNTABILITY instruction, in order
        #: (the chaos soak folds these into ``BENCH_chaos.json``).
        self.accountability_slashes: list[dict] = []
        #: Lamports burned by accountability slashes (slashed minus the
        #: submitter rewards) — kept for stake-conservation accounting.
        self.burned_total = 0
        #: Accrued (unclaimed) signing rewards per validator (§V-C).
        self.reward_balances: dict[PublicKey, int] = {}
        self.initialized = False
        self.halted = False
        self._last_lc_update_time: Optional[float] = None
        #: Host compute units this contract consumed, across every
        #: instruction (the topology sweep partitions this per guest).
        self.compute_consumed = 0
        #: Sibling-guest light clients, by client id (cross-guest links).
        self.sibling_clients: dict = {}
        #: The forwarding middleware, once installed (multi-hop routing).
        self.forward = None
        #: Optional state-sync journal (see :meth:`attach_state_journal`).
        self.state_journal = None
        self._current_ctx: Optional[InvokeContext] = None

    @property
    def chain_id(self) -> str:
        return self.ibc.chain_id

    # ------------------------------------------------------------------
    # Program interface
    # ------------------------------------------------------------------

    @property
    def program_id(self) -> Address:
        return self._program_id

    def execute(self, ctx: InvokeContext, data: bytes) -> None:
        before = ctx.meter.consumed
        self._current_ctx = ctx
        try:
            self._execute(ctx, data)
        finally:
            self._current_ctx = None
            self.compute_consumed += ctx.meter.consumed - before

    def _execute(self, ctx: InvokeContext, data: bytes) -> None:
        if not data:
            raise ProgramError("empty instruction")
        opcode, payload = data[0], data[1:]
        if self.halted and opcode not in (Op.WITHDRAW_STAKE, Op.UNSTAKE):
            raise GuestError(
                "guest has self-destructed; only stake recovery remains"
            )
        reader = Reader(payload)
        if opcode == Op.SEND_PACKET:
            self._op_send_packet(ctx, reader)
        elif opcode == Op.GENERATE_BLOCK:
            self._op_generate_block(ctx)
        elif opcode == Op.SIGN_BLOCK:
            self._op_sign_block(ctx, reader)
        elif opcode == Op.STAKE:
            self._op_stake(ctx, reader)
        elif opcode == Op.UNSTAKE:
            self._op_unstake(ctx, reader)
        elif opcode == Op.WITHDRAW_STAKE:
            self._op_withdraw(ctx, reader)
        elif opcode == Op.CHUNK:
            self._op_chunk(ctx, reader)
        elif opcode == Op.LC_SIG_BATCH:
            self._op_lc_sig_batch(ctx, reader)
        elif opcode == Op.LC_FINALIZE:
            self._op_lc_finalize(ctx, reader)
        elif opcode == Op.RECV_EXEC:
            self._op_recv_exec(ctx, reader)
        elif opcode == Op.ACK_EXEC:
            self._op_ack_exec(ctx, reader)
        elif opcode == Op.TIMEOUT_EXEC:
            self._op_timeout_exec(ctx, reader)
        elif opcode == Op.CONFIRM_ACK:
            self._op_confirm_ack(ctx, reader)
        elif opcode == Op.EVIDENCE:
            self._op_evidence(ctx, reader)
        elif opcode == Op.ACCOUNTABILITY:
            self._op_accountability(ctx, reader)
        elif opcode == Op.HANDSHAKE:
            self._op_handshake(ctx, reader.read_bytes())
        elif opcode == Op.HANDSHAKE_EXEC:
            buffer = self._consume_buffer(ctx.payer, reader.read_varint())
            self._op_handshake(ctx, buffer.assembled())
        elif opcode == Op.BATCH_EXEC:
            self._op_batch_exec(ctx, reader)
        elif opcode == Op.SIBLING_UPDATE:
            self._op_sibling_update(ctx, reader)
        elif opcode == Op.SELF_DESTRUCT:
            self._op_self_destruct(ctx)
        elif opcode == Op.CLAIM_REWARDS:
            self._op_claim_rewards(ctx, reader)
        else:
            raise ProgramError(f"unknown opcode {opcode}")
        self._check_state_budget()

    # ------------------------------------------------------------------
    # Genesis (deploy-time, performed once by the deployer)
    # ------------------------------------------------------------------

    def initialize(self, ctx_slot: int, ctx_time: float) -> None:
        """Create the genesis block from the initial candidate set.

        Deployment-time action: the deployer has already funded the 10 MiB
        state account (§V-D) and the initial validators have bonded
        through STAKE instructions.
        """
        if self.initialized:
            raise GuestError("guest already initialized")
        epoch = self.staking.select_epoch(epoch_id=0)
        self._adopt_epoch(epoch)
        self.current_epoch = epoch
        self._epoch_start_slot = ctx_slot
        header = GuestBlockHeader(
            height=0,
            prev_hash=Hash.zero(),
            timestamp=ctx_time,
            host_slot=ctx_slot,
            state_root=self.store.root_hash,
            epoch_id=0,
            epoch_hash=epoch.canonical_hash(),
        )
        genesis = GuestBlock(header=header, finalised=True,
                             generated_at=ctx_time, finalised_at=ctx_time)
        self.blocks.append(genesis)
        self._packets_by_height[0] = ()
        self._state_views[0] = self.store.snapshot()
        if self.state_journal is not None:
            self.state_journal.mark_height(0)
        self.initialized = True

    def _adopt_epoch(self, epoch: Epoch) -> None:
        self.epochs[epoch.epoch_id] = epoch
        self.epochs_by_hash[epoch.canonical_hash()] = epoch

    # ------------------------------------------------------------------
    # Alg. 1: SendPacket
    # ------------------------------------------------------------------

    def _op_send_packet(self, ctx: InvokeContext, reader: Reader) -> None:
        self._require_initialized()
        port = PortId(reader.read_bytes().decode())
        channel = ChannelId(reader.read_bytes().decode())
        payload = reader.read_bytes()
        timeout = reader.read_varint() / 1000.0
        reader.expect_end()

        fee = self.config.send_fee_lamports + self.config.send_fee_per_byte * len(payload)
        ctx.transfer(ctx.payer, self.treasury, fee)  # collect_fees (Alg. 1 l.7)
        self.fees_collected += fee
        self._undistributed_fees += fee

        ctx.meter.charge_hash(len(payload))
        ctx.meter.charge_trie_nodes(16)
        packet = self.ibc.send_packet(port, channel, payload, timeout)
        self._pending_packets.append(packet)
        trace = ctx.chain.sim.trace
        trace.count("guest.packets.sent")
        # Phase 1 of the Fig. 2 decomposition: committed -> included in a
        # generated guest block (closed by GENERATE_BLOCK).
        trace.begin("packet.block_wait", key=packet.sequence, actor="guest")
        ctx.emit("PacketCommitted", guest=self.chain_id,
                 height_hint=self.head.height + 1,
                 sequence=packet.sequence, channel=str(channel))

    # ------------------------------------------------------------------
    # Alg. 1: GenerateBlock
    # ------------------------------------------------------------------

    @property
    def head(self) -> GuestBlock:
        if not self.blocks:
            raise GuestError("guest has no blocks (not initialized)")
        return self.blocks[-1]

    def _op_generate_block(self, ctx: InvokeContext) -> None:
        self._require_initialized()
        head = self.head
        if not head.finalised:
            raise HeadNotFinalisedError(
                f"head block {head.height} awaits quorum"
            )
        age = ctx.unix_time - head.header.timestamp
        state_changed = self.store.root_hash != head.header.state_root
        if not state_changed and age < self.config.delta_seconds:
            raise StaleBlockError(
                f"state unchanged and head is only {age:.0f} s old "
                f"(Δ = {self.config.delta_seconds:.0f} s)"
            )

        assert self.current_epoch is not None
        epoch = self.current_epoch
        rotate = (
            ctx.slot - self._epoch_start_slot >= self.config.epoch_length_host_blocks
        )
        next_epoch: Optional[Epoch] = None
        if rotate:
            try:
                next_epoch = self.staking.select_epoch(epoch.epoch_id + 1)
            except GuestError:
                next_epoch = None  # no eligible candidates: stay put
        header = GuestBlockHeader(
            height=head.height + 1,
            prev_hash=head.header.block_hash(),
            timestamp=ctx.unix_time,
            host_slot=ctx.slot,
            state_root=self.store.root_hash,
            epoch_id=epoch.epoch_id,
            epoch_hash=epoch.canonical_hash(),
            packet_hashes=tuple(p.commitment_hash() for p in self._pending_packets),
            last_in_epoch=next_epoch is not None,
            next_epoch_hash=next_epoch.canonical_hash() if next_epoch else None,
        )
        block = GuestBlock(header=header, generated_at=ctx.unix_time)
        self.blocks.append(block)
        self._packets_by_height[header.height] = tuple(self._pending_packets)
        trace = ctx.chain.sim.trace
        trace.count("guest.blocks.generated")
        trace.gauge("guest.block.packets", len(self._pending_packets))
        trace.gauge("guest.store.nodes", self.store.node_count())
        trace.gauge("guest.store.bytes", self.store.storage_bytes())
        # Block production -> quorum, per block and per carried packet
        # (phase 2 of the Fig. 2 decomposition; closed on finalisation).
        trace.begin("guest.block", key=header.height, actor="guest")
        for packet in self._pending_packets:
            trace.finish("packet.block_wait", key=packet.sequence,
                         height=header.height)
            trace.begin("packet.quorum_wait", key=packet.sequence, actor="guest")
        self._pending_packets = []
        self._state_views[header.height] = self.store.snapshot()
        if self.state_journal is not None:
            self.state_journal.mark_height(header.height)
        if next_epoch is not None:
            self._adopt_epoch(next_epoch)
            self.current_epoch = next_epoch
            self._epoch_start_slot = ctx.slot
        ctx.meter.charge_hash(256)
        ctx.emit("NewBlock", guest=self.chain_id,
                 height=header.height, header=header)

    # ------------------------------------------------------------------
    # Alg. 1: Sign
    # ------------------------------------------------------------------

    def _op_sign_block(self, ctx: InvokeContext, reader: Reader) -> None:
        self._require_initialized()
        height = reader.read_varint()
        public_key = PublicKey(reader.read(32))
        signature = Signature(reader.read(64))
        reader.expect_end()

        block = self.block_at(height)                      # Alg. 1 l.20–21
        epoch = self.epochs[block.header.epoch_id]
        if not epoch.is_validator(public_key):             # l.22
            raise GuestError(f"{public_key.short()} not in epoch {epoch.epoch_id}")
        if public_key in block.signers:                    # l.23
            raise AlreadySignedError(
                f"{public_key.short()} already signed block {height}"
            )
        message = block.header.sign_message()
        if not ctx.is_signature_verified(public_key, message):  # l.24
            raise GuestError("signature not verified by the runtime")

        trace = ctx.chain.sim.trace
        if block.finalised:
            trace.count("guest.signatures.after_quorum")
        block.add_signature(public_key, signature)         # l.25
        trace.count("guest.signatures")
        if not block.finalised and epoch.has_quorum(block.signer_set()):  # l.26–28
            block.finalised = True                          # l.29
            block.finalised_at = ctx.unix_time
            self._distribute_rewards(block, epoch)
            packets = self._packets_by_height.get(height, ())
            trace.count("guest.blocks.finalised")
            trace.finish("guest.block", key=height,
                         signatures=len(block.signers))
            for packet in packets:
                trace.finish("packet.quorum_wait", key=packet.sequence,
                             height=height)
            ctx.emit(                                      # l.30
                "FinalisedBlock",
                guest=self.chain_id,
                height=height,
                header=block.header,
                packets=packets,
                signatures=dict(block.signers),
                new_epoch=(
                    self.epochs_by_hash.get(block.header.next_epoch_hash)
                    if block.header.next_epoch_hash is not None else None
                ),
            )

    def _distribute_rewards(self, block: GuestBlock, epoch: Epoch) -> None:
        """Split the accrued packet fees among the finalising signers,
        pro rata by stake (the §V-C incentive the deployment lacked).

        Late signatures (after quorum) earn nothing — which is why
        rational validators skip already-finalised blocks."""
        share = self.config.signer_reward_share
        pool = (self._undistributed_fees * share.numerator) // share.denominator
        if pool <= 0:
            return
        signers = block.signer_set()
        signed_stake = epoch.signed_stake(signers)
        if signed_stake <= 0:
            return
        distributed = 0
        for signer in signers:
            amount = pool * epoch.stake(signer) // signed_stake
            if amount:
                self.reward_balances[signer] = (
                    self.reward_balances.get(signer, 0) + amount
                )
                distributed += amount
        self._undistributed_fees -= distributed

    def _op_claim_rewards(self, ctx: InvokeContext, reader: Reader) -> None:
        from repro.guest.instructions import claim_message
        public_key = PublicKey(reader.read(32))
        reader.expect_end()
        message = claim_message(public_key, bytes(ctx.payer))
        if not ctx.is_signature_verified(public_key, message):
            raise GuestError("reward claim not authorised by the validator key")
        amount = self.reward_balances.pop(public_key, 0)
        if amount <= 0:
            raise GuestError("no rewards accrued")
        ctx.accounts_db.transfer(self.treasury, ctx.payer, amount)
        ctx.emit("RewardsClaimed", guest=self.chain_id,
                 validator=public_key, amount=amount)

    def block_at(self, height: int) -> GuestBlock:
        if not 0 <= height < len(self.blocks):
            raise UnknownBlockError(f"no guest block at height {height}")
        return self.blocks[height]

    # ------------------------------------------------------------------
    # Staking (§III-B)
    # ------------------------------------------------------------------

    def _op_stake(self, ctx: InvokeContext, reader: Reader) -> None:
        public_key = PublicKey(reader.read(32))
        lamports = reader.read_varint()
        reader.expect_end()
        ctx.transfer(ctx.payer, self.treasury, lamports)
        self.staking.bond(public_key, lamports)

    def _op_unstake(self, ctx: InvokeContext, reader: Reader) -> None:
        public_key = PublicKey(reader.read(32))
        lamports = reader.read_varint()
        reader.expect_end()
        release = self.staking.request_unbond(public_key, lamports, ctx.unix_time)
        ctx.emit("UnbondScheduled", guest=self.chain_id,
                 validator=public_key, release_time=release)

    def _op_withdraw(self, ctx: InvokeContext, reader: Reader) -> None:
        public_key = PublicKey(reader.read(32))
        reader.expect_end()
        amount = self.staking.withdraw(public_key, ctx.unix_time)
        if amount == 0:
            raise GuestError("nothing withdrawable yet (unbonding hold)")
        ctx.accounts_db.transfer(self.treasury, ctx.payer, amount)

    # ------------------------------------------------------------------
    # Chunked uploads (the §IV workaround machinery)
    # ------------------------------------------------------------------

    def _op_chunk(self, ctx: InvokeContext, reader: Reader) -> None:
        buffer_id = reader.read_varint()
        index = reader.read_varint()
        total = reader.read_varint()
        data = reader.read_bytes()
        reader.expect_end()
        if total == 0 or index >= total:
            raise ProgramError(f"bad chunk index {index}/{total}")
        buffer = self._open_buffer(ctx, buffer_id)
        if buffer.total_chunks == 0:
            buffer.total_chunks = total
        elif buffer.total_chunks != total:
            raise ProgramError("chunk total mismatch across transactions")
        buffer.chunks[index] = data
        ctx.meter.charge_write(len(data))
        self._finalize_lc_update_if_last(ctx, buffer_id, buffer)

    def _op_lc_sig_batch(self, ctx: InvokeContext, reader: Reader) -> None:
        buffer_id = reader.read_varint()
        reader.expect_end()
        if not ctx.verified_signatures:
            raise ProgramError("no runtime-verified signatures on this transaction")
        # May land before the buffer's first CHUNK: a short update puts
        # both in one submission window, and the host does not promise
        # their order.  Opening the buffer here costs nothing a CHUNK
        # would not; the update is adopted only once every chunk is in.
        buffer = self._open_buffer(ctx, buffer_id)
        buffer.verified_signers.extend(ctx.verified_signatures)
        buffer.verified_entries.extend(ctx.verified_signature_entries)
        buffer.batches_seen += 1
        self._finalize_lc_update_if_last(ctx, buffer_id, buffer)

    def _open_buffer(self, ctx: InvokeContext, buffer_id: int) -> _Buffer:
        key = (ctx.payer, buffer_id)
        buffer = self._buffers.get(key)
        if buffer is None:
            # Whoever opens a buffer sweeps the orphans out first, so
            # they stop counting against the state account.
            horizon = ctx.unix_time - STAGING_BUFFER_TTL_SECONDS
            for stale in [k for k, b in self._buffers.items()
                          if b.opened_at < horizon]:
                del self._buffers[stale]
            buffer = self._buffers[key] = _Buffer(
                owner=ctx.payer, opened_at=ctx.unix_time)
        return buffer

    def _buffer(self, owner: Address, buffer_id: int) -> _Buffer:
        buffer = self._buffers.get((owner, buffer_id))
        if buffer is None:
            raise ProgramError(f"unknown buffer {buffer_id}")
        return buffer

    def _consume_buffer(self, owner: Address, buffer_id: int) -> _Buffer:
        buffer = self._buffer(owner, buffer_id)
        del self._buffers[(owner, buffer_id)]
        return buffer

    # ------------------------------------------------------------------
    # Counterparty light-client update (LC_FINALIZE, the last lander)
    # ------------------------------------------------------------------

    def _op_lc_finalize(self, ctx: InvokeContext, reader: Reader) -> None:
        buffer_id = reader.read_varint()
        batches = reader.read_varint()
        reader.expect_end()
        # Like a signature batch, it may land before CHUNK 0: a relayer
        # hands the host the whole update at one instant and the host
        # orders it as it likes.
        buffer = self._open_buffer(ctx, buffer_id)
        buffer.finalize_batches = batches
        self._finalize_lc_update_if_last(ctx, buffer_id, buffer)

    def _finalize_lc_update_if_last(self, ctx: InvokeContext, buffer_id: int,
                                    buffer: _Buffer) -> None:
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
        limit = self.config.lc_min_update_interval
        if limit is not None and self._last_lc_update_time is not None:
            elapsed = ctx.unix_time - self._last_lc_update_time
            if elapsed < limit:
                raise GuestError(
                    f"light-client rate limit: {elapsed:.0f} s since the "
                    f"last update, minimum is {limit:.0f} s (the §VI-C "
                    "damage-limitation measure)"
                )
        del self._buffers[(ctx.payer, buffer_id)]
        client = self.counterparty_client
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
            ctx.emit("CounterpartyEquivocation", guest=self.chain_id,
                     height=header.height,
                     proof=b"" if proof is None else proof.to_bytes())
            return
        self._last_lc_update_time = ctx.unix_time
        trace.count("guest.lc.updates")
        trace.observe("guest.lc.verified_signers", len(signers))
        ctx.emit("CounterpartyClientUpdated", guest=self.chain_id,
                 height=header.height)

    # ------------------------------------------------------------------
    # Alg. 1: ReceivePacket (+ ack/timeout processing)
    # ------------------------------------------------------------------

    def _staged_packet_msg(self, ctx: InvokeContext, reader: Reader) -> BufferedPacketMsg:
        self._require_initialized()
        buffer_id = reader.read_varint()
        reader.expect_end()
        buffer = self._consume_buffer(ctx.payer, buffer_id)
        return BufferedPacketMsg.from_bytes(buffer.assembled())

    def _op_recv_exec(self, ctx: InvokeContext, reader: Reader) -> None:
        msg = self._staged_packet_msg(ctx, reader)
        proof = MembershipProof.from_bytes(msg.proof_bytes)
        ctx.meter.charge_hash(len(msg.proof_bytes))
        ctx.meter.charge_trie_nodes(2 * len(proof.steps) + 8)
        self._exec_recv_msg(ctx, msg, proof)

    def _op_ack_exec(self, ctx: InvokeContext, reader: Reader) -> None:
        msg = self._staged_packet_msg(ctx, reader)
        proof = MembershipProof.from_bytes(msg.proof_bytes)
        ctx.meter.charge_hash(len(msg.proof_bytes))
        self._exec_ack_msg(ctx, msg, proof)

    def _op_timeout_exec(self, ctx: InvokeContext, reader: Reader) -> None:
        self._exec_timeout_msg(ctx, self._staged_packet_msg(ctx, reader))

    def _exec_recv_msg(self, ctx: InvokeContext, msg: BufferedPacketMsg,
                       proof: MembershipProof | MembershipWitness) -> None:
        """Alg. 1's ReceivePacket body over one decoded message, proven
        by its own path or by its height's witness."""
        packet = Packet.from_bytes(msg.packet_bytes)
        ack = self.ibc.recv_packet(packet, proof, msg.proof_height,
                                   local_time=ctx.unix_time)
        ctx.emit("PacketReceived", guest=self.chain_id,
                 sequence=packet.sequence,
                 channel=str(packet.destination_channel),
                 ack_success=ack.success, packet=packet,
                 ack_bytes=ack.to_bytes())

    def _exec_ack_msg(self, ctx: InvokeContext, msg: BufferedPacketMsg,
                      proof: MembershipProof | MembershipWitness) -> None:
        packet = Packet.from_bytes(msg.packet_bytes)
        ack = Acknowledgement.from_bytes(msg.ack_bytes)
        self.ibc.acknowledge_packet(packet, ack, proof, msg.proof_height)
        ctx.emit("PacketAcknowledged", guest=self.chain_id,
                 sequence=packet.sequence,
                 channel=str(packet.source_channel))

    def _exec_timeout_msg(self, ctx: InvokeContext, msg: BufferedPacketMsg) -> None:
        packet = Packet.from_bytes(msg.packet_bytes)
        proof = NonMembershipProof.from_bytes(msg.proof_bytes)
        ctx.meter.charge_hash(len(msg.proof_bytes))
        self.ibc.timeout_packet(packet, proof, msg.proof_height)
        ctx.emit("PacketTimedOut", guest=self.chain_id,
                 sequence=packet.sequence,
                 channel=str(packet.source_channel))

    def _op_batch_exec(self, ctx: InvokeContext, reader: Reader) -> None:
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
        self._require_initialized()
        staged = reader.read_varint()
        if staged > 1:
            raise ProgramError(f"unknown batch staging flag {staged}")
        buffer_id = reader.read_varint() if staged else None
        payload = (self._buffer(ctx.payer, buffer_id).assembled()
                   if staged else b"") + reader.read_bytes()
        reader.expect_end()
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
        proven = {Op.RECV_EXEC: self._exec_recv_msg,
                  Op.ACK_EXEC: self._exec_ack_msg}
        for kind, msg in entries:
            if kind in proven and msg.proof_height not in witnesses:
                raise ProgramError(
                    f"batch entry at height {msg.proof_height} has no witness")
        ctx.meter.charge_trie_nodes(_BATCH_ENTRY_TRIE_NODES * len(entries))
        if staged:
            del self._buffers[(ctx.payer, buffer_id)]

        failures: list[tuple[int, int, str]] = []
        for index, (kind, msg) in enumerate(entries):
            try:
                if kind in proven:
                    proven[kind](ctx, msg, witnesses[msg.proof_height])
                elif kind == Op.TIMEOUT_EXEC:
                    self._exec_timeout_msg(ctx, msg)
                else:
                    failures.append((index, kind, f"opcode {kind} not batchable"))
            except (ReproError, ValueError) as exc:
                failures.append((index, kind, str(exc)))
        count = len(entries)
        trace.count("guest.batch.instructions")
        trace.count("guest.batch.entries", count)
        trace.count("guest.batch.entries_failed", len(failures))
        trace.observe("guest.batch.size", count)
        ctx.emit("BatchProcessed", guest=self.chain_id, total=count,
                 ok=count - len(failures), failures=tuple(failures))

    def _op_confirm_ack(self, ctx: InvokeContext, reader: Reader) -> None:
        port = PortId(reader.read_bytes().decode())
        channel = ChannelId(reader.read_bytes().decode())
        sequence = reader.read_varint()
        reader.expect_end()
        self.ibc.confirm_ack(port, channel, sequence)
        ctx.chain.sim.trace.count("guest.acks.sealed")

    # ------------------------------------------------------------------
    # Self-destruction (§VI-A)
    # ------------------------------------------------------------------

    def _op_self_destruct(self, ctx: InvokeContext) -> None:
        """Release every bond once the chain has been dead long enough.

        §VI-A's mitigation for the last-validator bank run: if no guest
        block was generated for the configured period, the chain is
        considered abandoned and validators recover their stake without
        needing a live quorum.  Permissionless, like GenerateBlock.
        """
        self._require_initialized()
        threshold = self.config.self_destruct_after_seconds
        if threshold is None:
            raise GuestError("self-destruction is not enabled on this deployment")
        idle = ctx.unix_time - self.head.header.timestamp
        if idle < threshold:
            raise GuestError(
                f"guest head is only {idle:.0f} s old; self-destruction "
                f"requires {threshold:.0f} s of inactivity"
            )
        released = self.staking.release_all(ctx.unix_time)
        self.halted = True
        ctx.emit("SelfDestructed", guest=self.chain_id,
                 released=released, idle_seconds=idle)

    # ------------------------------------------------------------------
    # IBC handshakes
    # ------------------------------------------------------------------

    def _op_handshake(self, ctx: InvokeContext, msg_bytes: bytes) -> None:
        from repro.ibc.messages import apply_handshake, decode_handshake
        msg = decode_handshake(msg_bytes)
        ctx.meter.charge_hash(len(msg_bytes))
        created = apply_handshake(self.ibc, msg)
        # The payer lets each relayer pick out the steps of its own
        # datagrams when several shake hands on this guest.
        ctx.emit("HandshakeStep", guest=self.chain_id, payer=ctx.payer,
                 kind=type(msg).__name__, created=created)

    # ------------------------------------------------------------------
    # Sibling guests (the multi-guest fabric; docs/FABRIC.md)
    # ------------------------------------------------------------------

    def register_sibling(self, peer: "GuestContract"):
        """Create a light client of another guest on the *same* host.

        Deploy-time wiring, like :meth:`initialize`: on a real host this
        is an instruction that records the peer's program id.  Trust is
        host-verified (ICS-09-style localhost semantics): both guests
        execute under the same host runtime, so the peer's finalisation
        is directly readable state rather than something to re-verify
        from signatures.  Returns the new client id.
        """
        from repro.fabric.sibling import SiblingGuestClient
        if peer is self:
            raise GuestError("a guest cannot register itself as a sibling")
        client = SiblingGuestClient(peer)
        client_id = self.ibc.create_client(client)
        self.sibling_clients[client_id] = client
        return client_id

    def _op_sibling_update(self, ctx: InvokeContext, reader: Reader) -> None:
        """Adopt a finalised sibling-guest height into its local client.

        Idempotent on purpose: relayers prepend this to delivery bundles
        (atomic update-then-prove), and a bundle must not fail because a
        competing relayer adopted the height first.
        """
        self._require_initialized()
        from repro.ibc.identifiers import ClientId
        client_id = ClientId(reader.read_bytes().decode())
        height = reader.read_varint()
        reader.expect_end()
        client = self.sibling_clients.get(client_id)
        if client is None:
            raise ProgramError(f"{client_id} is not a sibling-guest client")
        ctx.meter.charge_hash(64)
        ctx.meter.charge_trie_nodes(4)
        fresh = client.adopt(height)
        if fresh:
            ctx.chain.sim.trace.count("guest.sibling.updates")
        ctx.emit("SiblingClientUpdated", guest=self.chain_id,
                 client=str(client_id), height=height, fresh=fresh)

    def install_forwarding(self, hop_timeout_seconds: float = 600.0):
        """Swap the transfer app for a packet-forwarding middleware.

        Multi-hop routes (A → guest₁ → guest₂ → B) need each intermediate
        guest to re-send an incoming transfer on its next-hop channel;
        the middleware wraps the plain :class:`TransferApp` and does
        exactly that (docs/FABRIC.md).  Idempotent.
        """
        from repro.fabric.forward import ForwardMiddleware
        if self.forward is not None:
            return self.forward
        middleware = ForwardMiddleware(
            self.transfer, send=self._forward_send,
            clock=lambda: (self._current_ctx.unix_time
                           if self._current_ctx is not None else 0.0),
            hop_timeout_seconds=hop_timeout_seconds,
        )
        self.ibc.apps[self.transfer_port] = middleware
        self.forward = middleware
        return middleware

    def _forward_send(self, port: str, channel: str, payload: bytes,
                      timeout: float) -> Packet:
        """Commit an onward (or unwind) packet from inside a recv/ack/
        timeout instruction — the middleware's send hook.

        No SEND_PACKET fee is collected: the hop was already paid for by
        the original sender's fee on the first hop, and the forwarding
        module owns no lamports to pay with.  Compute is still metered.
        """
        ctx = self._current_ctx
        packet = self.ibc.send_packet(
            PortId(port), ChannelId(channel), payload, timeout)
        self._pending_packets.append(packet)
        if ctx is not None:
            ctx.meter.charge_hash(len(payload))
            ctx.meter.charge_trie_nodes(16)
            trace = ctx.chain.sim.trace
            trace.count("guest.packets.forwarded")
            trace.begin("packet.block_wait", key=packet.sequence,
                        actor="guest")
            ctx.emit("PacketCommitted", guest=self.chain_id,
                     height_hint=self.head.height + 1,
                     sequence=packet.sequence, channel=str(channel),
                     forwarded=True)
        return packet

    # ------------------------------------------------------------------
    # Fisherman evidence (§III-C)
    # ------------------------------------------------------------------

    def _op_evidence(self, ctx: InvokeContext, reader: Reader) -> None:
        """Validate misbehaviour evidence and slash the offender.

        The evidence is a signature by a validator over a block-sign
        message ``(height, fingerprint)`` that conflicts with the chain:
        either the height is above the head, or the fingerprint differs
        from the real block at that height.
        """
        self._require_initialized()
        kind = reader.read_varint()
        payload = Reader(reader.read_bytes())
        reader.expect_end()
        public_key = PublicKey(payload.read(32))
        height = payload.read_varint()
        fingerprint = payload.read_bytes()
        payload.expect_end()

        message = sign_message(height, fingerprint)
        if not ctx.is_signature_verified(public_key, message):
            raise ProgramError("evidence signature not verified by the runtime")
        if self.staking.stake_of(public_key) == 0:
            raise GuestError(f"{public_key.short()} has no stake to slash")

        if height >= len(self.blocks):
            offence = "signed a block above the head"
        else:
            real = self.blocks[height].header.fingerprint()
            if fingerprint == real:
                raise GuestError("signature matches the real block; no offence")
            offence = "signed a conflicting block"

        slashed = self.staking.slash(public_key)
        self.staking.remove(public_key)
        # Reward the fisherman with half of the slashed stake.
        reward = slashed // 2
        ctx.accounts_db.transfer(self.treasury, ctx.payer, reward)
        ctx.emit("ValidatorSlashed", guest=self.chain_id, validator=public_key,
                 slashed=slashed, reward=reward, offence=offence, kind=kind)

    # ------------------------------------------------------------------
    # Accountable safety (docs/ACCOUNTABILITY.md)
    # ------------------------------------------------------------------

    def _op_accountability(self, ctx: InvokeContext, reader: Reader) -> None:
        """Prosecute an equivocation: slash the double-signing quorum.

        The staged buffer holds an :class:`AccountabilityProof` — two
        conflicting finalisations of one guest height with both raw
        signature sets.  The proof is self-contained: verification only
        needs the epoch it names (both sides may be forgeries; whoever
        signed them both still equivocated).  Offenders lose
        ``accountability_slash_fraction`` of their stake and are ejected
        from candidacy, subject to the ``min_live_validators`` floor.
        """
        self._require_initialized()
        buffer_id = reader.read_varint()
        reader.expect_end()
        buffer = self._consume_buffer(ctx.payer, buffer_id)
        raw = buffer.assembled()
        ctx.meter.charge_hash(len(raw))
        proof = AccountabilityProof.from_bytes(raw)
        if proof.chain_id != self.chain_id:
            raise GuestError(
                f"proof is for chain {proof.chain_id!r}, not {self.chain_id!r}")
        proof_id = bytes(proof.proof_id())
        if proof_id in self.prosecuted_proofs:
            raise GuestError("equivocation already prosecuted")
        epoch = self.epochs_by_hash.get(Hash(proof.valset_hash))
        if epoch is None:
            raise GuestError("proof references an unknown validator epoch")
        # Protocol binding: each side's sign-bytes must be the guest
        # block-sign message over the claimed height and commitment, or
        # the height/commitment fields could lie about what was signed.
        for fin in (proof.first, proof.second):
            if fin.sign_bytes != sign_message(proof.height, fin.commitment):
                raise AccountabilityError(
                    "finalisation sign-bytes do not bind the claimed height")
        offenders = verify_proof(
            proof,
            powers=epoch.validators,
            total_power=epoch.total_stake,
            quorum_power=epoch.quorum_stake,
            batch_verify=ctx.verify_signature_set,
        )
        outcome = apply_accountability_slash(
            self.staking, offenders,
            fraction=self.config.accountability_slash_fraction,
            min_live=self.config.min_live_validators,
        )
        fraction = self.config.accountability_reward_fraction
        reward = (outcome.total_slashed * fraction.numerator
                  ) // fraction.denominator
        if reward:
            ctx.accounts_db.transfer(self.treasury, ctx.payer, reward)
        burned = outcome.total_slashed - reward
        self.burned_total += burned
        self.prosecuted_proofs.add(proof_id)
        offender_stake = sum(epoch.stake(pk) for pk in offenders)
        self.accountability_slashes.append({
            "height": proof.height,
            "proof_id": proof_id.hex(),
            "epoch_id": epoch.epoch_id,
            "offenders": [pk.short() for pk in outcome.offenders],
            "ejected": [pk.short() for pk in outcome.ejected],
            "spared": [pk.short() for pk in outcome.spared],
            "slashed": outcome.total_slashed,
            "burned": burned,
            "reward": reward,
            "offender_stake": offender_stake,
            "total_stake": epoch.total_stake,
        })
        trace = ctx.chain.sim.trace
        trace.count("guest.accountability.slashes")
        trace.observe("guest.accountability.offenders", len(offenders))
        ctx.emit("EquivocationSlashed", guest=self.chain_id,
                 height=proof.height, proof_id=proof_id,
                 validators=outcome.ejected, spared=outcome.spared,
                 slashed=outcome.total_slashed, burned=burned, reward=reward,
                 offender_stake=offender_stake,
                 total_stake=epoch.total_stake)

    # ------------------------------------------------------------------
    # Helpers, accounting, proof serving
    # ------------------------------------------------------------------

    def _validate_claim_about_guest(self, claimed_bytes: bytes) -> None:
        """ICS-03 validate_self_client — the check the paper's footnote 2
        notes NEAR-IBC left unimplemented.  Rejects connections whose
        counterparty runs a bogus light client of this guest chain."""
        from repro.ibc.self_client import SelfClientState, validate_self_client
        claimed = SelfClientState.from_bytes(claimed_bytes)
        validate_self_client(
            claimed,
            our_chain_id=self.ibc.chain_id,
            our_height=self.head.height if self.blocks else 0,
            known_set_hashes=frozenset(bytes(h) for h in self.epochs_by_hash),
        )

    def _require_initialized(self) -> None:
        if not self.initialized:
            raise GuestError("guest not initialized")

    def _check_state_budget(self) -> None:
        used = self.store.storage_bytes() + sum(
            buffer.byte_size() for buffer in self._buffers.values()
        )
        if used > self.config.state_account_bytes:
            raise ProgramError(
                f"guest state would use {used} bytes; the account holds "
                f"{self.config.state_account_bytes}"
            )

    def state_usage_bytes(self) -> int:
        return self.store.storage_bytes()

    def state_view(self, height: int) -> ProvableStore:
        """Frozen store whose root is the block header's ``state_root``
        (what a relayer proves packet commitments against)."""
        view = self._state_views.get(height)
        if view is None:
            raise UnknownBlockError(f"no state view for height {height}")
        return view

    def attach_state_journal(self, journal) -> None:
        """Record every store mutation into ``journal`` (a
        :class:`repro.state.sync.StateJournal`), watermarked per block,
        so new validators can state-sync from a snapshot instead of
        replaying history.  Attach before ``initialize`` to have a
        watermark for every height."""
        if self.state_journal is not None:
            raise GuestError("a state journal is already attached")
        self.state_journal = journal
        self.store.trie.attach_mirror(journal)

    def packets_in_block(self, height: int) -> tuple[Packet, ...]:
        return self._packets_by_height.get(height, ())
