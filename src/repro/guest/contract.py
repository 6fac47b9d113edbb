"""The Guest Contract: Alg. 1 of the paper, as a host program.

The contract is the guest blockchain.  It owns the sealable trie (the
guest's provable state), produces guest blocks, collects validator
signatures until a stake quorum finalises each block, runs the embedded
IBC module, and hosts the chunked Tendermint light client of the
counterparty.  Everything arrives as host instructions under the host
runtime's constraints — transaction size, compute budget, per-signature
fees — which is where the measured costs of §V come from.

Alg. 1 is a table from call to handler, and so is this module:
:data:`HANDLERS` has one row per opcode, :meth:`GuestContract.execute`
is the only way to a handler, and the handlers are plain functions over
the contract (whose attributes are the guest's state) in the four
``ops_*`` modules.  The wire format of each row is in
:mod:`repro.guest.instructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.hashing import Hash
from repro.crypto.keys import PublicKey
from repro.errors import GuestError, ProgramError, UnknownBlockError
from repro.guest import ops_blocks, ops_evidence, ops_packets, ops_staging
from repro.guest.block import GuestBlock, GuestBlockHeader
from repro.guest.config import GuestConfig
from repro.guest.epoch import Epoch
from repro.guest.instructions import Op, decode
# The TTL is imported for the callers that read it from here.
from repro.guest.ops_staging import STAGING_BUFFER_TTL_SECONDS, Buffer  # noqa: F401
from repro.guest.staking import StakingPool
from repro.host.accounts import Address
from repro.host.programs import InvokeContext, Program
from repro.ibc.apps.transfer import Bank, TransferApp
from repro.ibc.host import IbcHost
from repro.ibc.identifiers import ChannelId, PortId
from repro.ibc.packet import Packet
from repro.lightclient.tendermint import TendermintLightClient, ValidatorSet
from repro.state.scheduler import EagerScheduler
from repro.trie.store import ProvableStore


@dataclass(slots=True)
class Row:
    """One opcode of the Guest Contract: who handles it, and when."""

    #: ``handler(contract, ctx, *fields)``, the fields as
    #: :func:`repro.guest.instructions.decode` returns them.
    handler: Callable[..., None]
    #: Refused until :meth:`GuestContract.initialize` made the genesis.
    needs_init: bool = False
    #: The one field names a staging buffer of the payer's: it is
    #: consumed and the handler gets the assembled bytes instead.
    staged: bool = False
    #: Still served after self-destruction (stake recovery).
    when_halted: bool = False
    #: Tracer names of the dispatch probe, filled in below so that a
    #: disabled tracer pays for no string formatting.
    counter: str = ""
    cu_histogram: str = ""


HANDLERS: dict[int, Row] = {
    # Alg. 1 SendPacket: collect fees, commit the packet.
    Op.SEND_PACKET: Row(ops_packets.send_packet, needs_init=True),
    # Alg. 1 GenerateBlock: head finalised ∧ (state changed ∨ age ≥ Δ).
    Op.GENERATE_BLOCK: Row(ops_blocks.generate_block, needs_init=True),
    # Alg. 1 Sign: a runtime-verified signature; on quorum, finalise.
    Op.SIGN_BLOCK: Row(ops_blocks.sign_block, needs_init=True),
    # §III-B staking pool.
    Op.STAKE: Row(ops_blocks.stake),
    Op.UNSTAKE: Row(ops_blocks.unstake, when_halted=True),
    Op.WITHDRAW_STAKE: Row(ops_blocks.withdraw_stake, when_halted=True),
    # Stage an oversized message; a counterparty light-client update is
    # adopted by whichever of its three kinds of transaction lands last.
    Op.CHUNK: Row(ops_staging.chunk),
    Op.LC_SIG_BATCH: Row(ops_staging.lc_sig_batch),
    Op.LC_FINALIZE: Row(ops_staging.lc_finalize),
    # Alg. 1 ReceivePacket, acks and timeouts over a staged packet + proof.
    Op.RECV_EXEC: Row(ops_packets.recv_exec, needs_init=True, staged=True),
    Op.ACK_EXEC: Row(ops_packets.ack_exec, needs_init=True, staged=True),
    Op.TIMEOUT_EXEC: Row(ops_packets.timeout_exec, needs_init=True, staged=True),
    # §III-A: seal an ack entry nobody needs any more.
    Op.CONFIRM_ACK: Row(ops_packets.confirm_ack),
    # §III-C Fisherman evidence -> slashing.
    Op.EVIDENCE: Row(ops_evidence.evidence, needs_init=True),
    Op.HANDSHAKE: Row(ops_packets.handshake),
    Op.HANDSHAKE_EXEC: Row(ops_packets.handshake, staged=True),
    # §VI-A: release every bond of a chain long dead.
    Op.SELF_DESTRUCT: Row(ops_blocks.self_destruct, needs_init=True),
    Op.CLAIM_REWARDS: Row(ops_blocks.claim_rewards),
    # Many recv / ack / timeout entries, one witness per proof height.
    Op.BATCH_EXEC: Row(ops_packets.batch_exec, needs_init=True),
    Op.SIBLING_UPDATE: Row(ops_packets.sibling_update, needs_init=True),
    # A staged equivocation proof -> slash the double-signing quorum.
    Op.ACCOUNTABILITY: Row(ops_evidence.accountability, needs_init=True,
                           staged=True),
}
for _op, _row in HANDLERS.items():
    _row.counter = f"guest.op.{_op.name}"
    _row.cu_histogram = f"guest.op.{_op.name}.cu"


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
            write_height=self._write_height, clock=self._now,
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
        #: Frozen store views per height, for serving proofs: from
        #: ``ibc.kept_from`` on, what the guest's relayers can still
        #: prove at (:meth:`forget_history`).
        self._state_views: dict[int, ProvableStore] = {}
        self._buffers: dict[tuple[Address, int], Buffer] = {}
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
        row = None
        try:
            if not data:
                raise ProgramError("empty instruction")
            opcode = data[0]
            row = HANDLERS.get(opcode)
            if self.halted and not (row is not None and row.when_halted):
                raise GuestError(
                    "guest has self-destructed; only stake recovery remains"
                )
            if row is None:
                raise ProgramError(f"unknown opcode {opcode}")
            if row.needs_init and not self.initialized:
                raise GuestError("guest not initialized")
            fields = decode(opcode, data[1:])
            if row.staged:
                fields = (ops_staging.consume_buffer(
                    self, ctx.payer, *fields).assembled(),)
            row.handler(self, ctx, *fields)
            self._check_state_budget()
        finally:
            self._current_ctx = None
            spent = ctx.meter.consumed - before
            self.compute_consumed += spent
            if row is not None:
                trace = ctx.chain.sim.trace
                trace.count(row.counter)
                trace.observe(row.cu_histogram, spent)

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
        self._state_views[0] = self.store.snapshot()
        if self.state_journal is not None:
            self.state_journal.mark_height(0)
        self.initialized = True

    def _adopt_epoch(self, epoch: Epoch) -> None:
        self.epochs[epoch.epoch_id] = epoch
        self.epochs_by_hash[epoch.canonical_hash()] = epoch

    # ------------------------------------------------------------------
    # The chain
    # ------------------------------------------------------------------

    @property
    def head(self) -> GuestBlock:
        if not self.blocks:
            raise GuestError("guest has no blocks (not initialized)")
        return self.blocks[-1]

    def _now(self) -> float:
        """The host's clock, inside an instruction."""
        ctx = self._current_ctx
        return ctx.unix_time if ctx is not None else float("-inf")

    def _write_height(self) -> int:
        """A write commits in the next block generated (``height_hint``)."""
        return self.head.height + 1

    def block_at(self, height: int) -> GuestBlock:
        if not 0 <= height < len(self.blocks):
            raise UnknownBlockError(f"no guest block at height {height}")
        return self.blocks[height]

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
            clock=self._hop_clock,
            hop_timeout_seconds=hop_timeout_seconds,
        )
        self.ibc.apps[self.transfer_port] = middleware
        self.forward = middleware
        return middleware

    def _hop_clock(self) -> float:
        """The forwarding middleware's clock: the host's inside an
        instruction, 0 outside one."""
        ctx = self._current_ctx
        return ctx.unix_time if ctx is not None else 0.0

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

    def forget_history(self) -> None:
        """Drop the state views below what the guest's relayers can
        still reach (``IbcHost.forget``); run as each block finalises."""
        for height in self.ibc.forget():
            self._state_views.pop(height, None)

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
        """The packets the block at ``height`` commits (the next block's,
        before it is generated), read from the IBC write index."""
        return tuple(write.packet for write in self.ibc.writes.get(height, ())
                     if write.kind == "send")
