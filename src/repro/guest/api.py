"""Client-side transaction builder for the Guest Contract.

Wraps every contract operation into properly sized host transactions:
single-transaction calls (send, generate, sign, stake), atomic bundles
for packet delivery (the 4–5 transactions of §V-A that land in one host
block; a batched bundle stages one payload — a membership witness per
proof height, then the entries — for all its packets), and the
multi-transaction flow for chunked light-client updates (Fig. 4: 36.5
transactions three at a time as the paper shipped them; ~15, staged in
one wave, as the default plan does).

Validators, relayers, fishermen and the examples all drive the guest
through this API.
"""

from __future__ import annotations

from repro import ids
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from repro.crypto.keys import Keypair, PublicKey, Signature
from repro.errors import HostUnavailableError
from repro.guest import instructions as ins
from repro.guest.instructions import Op
from repro.guest.contract import GuestContract
from repro.host.chain import HostChain
from repro.host.fees import BaseFee, FeeStrategy
from repro.host.transaction import Instruction, SigVerify, Transaction, TxReceipt
from repro.lightclient.chunked import plan_update_chunks, usable_chunk_bytes
from repro.lightclient.tendermint import LightClientUpdate
from repro.trie.proof import MembershipWitness

_buffer_ids = ids.mint("guest.buffer")


@dataclass
class LcUpdateResult:
    """Outcome of one chunked light-client update (Fig. 4/5 data point)."""

    height: int
    transaction_count: int
    signature_count: int
    total_fee: int
    #: Host times of the first and last executed transaction (§V-A's
    #: latency definition for light-client updates).
    first_tx_time: float
    last_tx_time: float
    success: bool
    #: Most transactions awaiting their receipt at one instant.
    peak_in_flight: int = 0

    @property
    def latency(self) -> float:
        return self.last_tx_time - self.first_tx_time


@dataclass
class DeliveryResult:
    """Outcome of one bundled packet delivery / ack / timeout."""

    transaction_count: int
    total_fee: int
    slot: int
    success: bool
    error: Optional[str] = None
    #: How many packet operations the bundle carried (1 unless batched).
    packet_count: int = 1
    #: Indices of the batch entries the contract refused on their own in
    #: a landed ``BATCH_EXEC`` bundle (its ``BatchProcessed`` event).
    failed_entries: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class BatchOp:
    """One packet operation on its way to a guest in a delivery bundle.

    ``proof`` is the operation's own path: a bundle of this one
    operation ships it as it is, a :class:`Batch` merges it into its
    height's witness.
    """

    kind: str  # "recv" | "ack" | "timeout"
    packet: object
    proof: object
    proof_height: int
    ack: object = None

    def message(self, proof: bool = True) -> bytes:
        """The staged message its exec instruction consumes: packet,
        proof (left out of a batch entry whose height's witness proves
        it), proof height and ack."""
        return ins.BufferedPacketMsg(
            packet_bytes=self.packet.to_bytes(),
            proof_bytes=self.proof.to_bytes() if proof else b"",
            proof_height=self.proof_height,
            ack_bytes=self.ack.to_bytes() if self.ack is not None else b"",
        ).to_bytes()

    def entry_bytes(self) -> bytes:
        """This operation as an entry of a batch payload."""
        # A receipt's absence is not in the height's witness.
        return bytes([self.exec_op()]) + self.message(
            proof=self.kind == "timeout")

    def exec_op(self) -> Op:
        return {"recv": Op.RECV_EXEC, "ack": Op.ACK_EXEC,
                "timeout": Op.TIMEOUT_EXEC}[self.kind]


@dataclass(frozen=True)
class Batch:
    """Packet operations and the one payload that carries them, built
    once: the relayer cuts its flushes by the payload's size and
    :meth:`GuestApi.deliver` ships the same bytes."""

    ops: tuple[BatchOp, ...]
    #: Encoded size of each height's witness, in height order.
    witness_sizes: tuple[int, ...]
    payload: bytes

    @classmethod
    def of(cls, ops: Sequence[BatchOp]) -> "Batch":
        """Merge the proofs of each height's recv/ack operations into
        that height's witness and lay out the payload."""
        if not ops:
            raise ValueError("empty delivery batch")
        proofs: dict[int, list] = {}
        for op in ops:
            if op.kind != "timeout":
                proofs.setdefault(op.proof_height, []).append(op.proof)
        witnesses = [(height, MembershipWitness.merge(proofs[height]).to_bytes())
                     for height in sorted(proofs)]
        return cls(
            ops=tuple(ops),
            witness_sizes=tuple(len(witness) for _, witness in witnesses),
            payload=ins.batch_payload(
                witnesses, [op.entry_bytes() for op in ops]),
        )


class GuestApi:
    """Builds and submits Guest Contract transactions for one payer."""

    def __init__(self, chain: HostChain, contract: GuestContract,
                 payer, default_fee: Optional[FeeStrategy] = None) -> None:
        self.chain = chain
        self.contract = contract
        self.payer = payer
        self.default_fee = default_fee or BaseFee()
        #: An instruction to the contract names its state account, and
        #: the treasury too unless it only stages bytes.
        self._instruction = partial(
            Instruction, contract.program_id,
            (contract.state_account, contract.treasury))
        self._staging_instruction = partial(
            Instruction, contract.program_id, (contract.state_account,))

    def _transaction(self, *data: bytes, fee: FeeStrategy,
                     sig_verifies: tuple[SigVerify, ...] = (),
                     compute_budget: Optional[int] = None,
                     staging: bool = False) -> Transaction:
        """One transaction of this payer's: an instruction to the
        contract per ``data``."""
        instruction = self._staging_instruction if staging else self._instruction
        return Transaction(
            payer=self.payer,
            instructions=tuple(map(instruction, data)),
            fee_strategy=fee,
            sig_verifies=sig_verifies,
            compute_budget=compute_budget,
        )

    # ------------------------------------------------------------------
    # Single-transaction operations
    # ------------------------------------------------------------------

    def _single(self, data: bytes, fee: Optional[FeeStrategy] = None,
                sig_verifies: tuple[SigVerify, ...] = (),
                compute_budget: Optional[int] = None,
                on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self.chain.submit(
            self._transaction(data, fee=fee or self.default_fee,
                              sig_verifies=sig_verifies,
                              compute_budget=compute_budget),
            on_result=on_result)

    def send_packet(self, port: str, channel: str, payload: bytes,
                    timeout_timestamp: float = 0.0,
                    fee: Optional[FeeStrategy] = None,
                    compute_budget: Optional[int] = None,
                    on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self._single(
            ins.send_packet(port, channel, payload, timeout_timestamp),
            fee=fee, compute_budget=compute_budget, on_result=on_result,
        )

    def send_packet_via_bundle(self, port: str, channel: str, payload: bytes,
                               tip_lamports: int,
                               timeout_timestamp: float = 0.0,
                               on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Send a packet through a block bundle (the Jito path of §V-A:
        the 3.02 USD cost cluster of Fig. 3)."""
        tx = self._transaction(
            ins.send_packet(port, channel, payload, timeout_timestamp),
            fee=BaseFee())
        self.chain.submit_bundle([tx], tip_lamports=tip_lamports,
                                 on_result=partial(_first_receipt, on_result))

    def generate_block(self, fee: Optional[FeeStrategy] = None,
                       on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self._single(ins.generate_block(), fee=fee, on_result=on_result)

    def sign_block(self, height: int, validator: Keypair, message: bytes,
                   fee: Optional[FeeStrategy] = None,
                   compute_budget: int = 200_000,
                   on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Submit a validator's signature (Alg. 2 upper half): the
        signature rides both as instruction data (stored in the block)
        and as a precompile entry (verified by the runtime)."""
        signature = validator.sign(message)
        self._single(
            ins.sign_block(height, validator.public_key, signature),
            fee=fee,
            sig_verifies=(SigVerify(validator.public_key, message, signature),),
            compute_budget=compute_budget,
            on_result=on_result,
        )

    def sibling_update(self, client_id: str, height: int,
                       on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Adopt a finalised sibling-guest height (idempotent; the
        cross-guest counterpart of a light-client update)."""
        self._single(ins.sibling_update(client_id, height), on_result=on_result)

    def stake(self, validator_key: PublicKey, lamports: int,
              on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self._single(ins.stake(validator_key, lamports), on_result=on_result)

    def unstake(self, validator_key: PublicKey, lamports: int,
                on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self._single(ins.unstake(validator_key, lamports), on_result=on_result)

    def withdraw_stake(self, validator_key: PublicKey,
                       on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        self._single(ins.withdraw_stake(validator_key), on_result=on_result)

    def claim_rewards(self, validator: Keypair,
                      on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Withdraw accrued signing rewards to this API's payer (§V-C)."""
        message = ins.claim_message(validator.public_key, bytes(self.payer))
        signature = validator.sign(message)
        self._single(
            ins.claim_rewards(validator.public_key),
            sig_verifies=(SigVerify(validator.public_key, message, signature),),
            on_result=on_result,
        )

    def confirm_acks(self, confirms: Sequence[tuple[str, str, int]],
                     on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Seal delivered acks, ``(port, channel, sequence)`` each, with
        one transaction of a CONFIRM_ACK instruction per ack — the
        ack-sealing counterpart of BATCH_EXEC coalescing.  The caller
        keeps it within the host's transaction size."""
        self.chain.submit(self._transaction(
            *[ins.confirm_ack(port, channel, sequence)
              for port, channel, sequence in confirms],
            fee=self.default_fee), on_result=on_result)

    def submit_evidence(self, offender: PublicKey, height: int,
                        fingerprint: bytes, signature: Signature,
                        message: bytes,
                        on_result: Optional[Callable[[TxReceipt], None]] = None) -> None:
        """Fisherman path (§III-C): ship the offending signature."""
        self._single(
            ins.evidence(offender, height, fingerprint),
            sig_verifies=(SigVerify(offender, message, signature),),
            on_result=on_result,
        )

    def submit_accountability_proof(
            self, proof,
            tip_lamports: int = 10_000,
            on_done: Optional[Callable[[DeliveryResult], None]] = None) -> None:
        """Prosecute an equivocation on chain (docs/ACCOUNTABILITY.md).

        An :class:`~repro.accountability.AccountabilityProof` carries two
        full signature sets, far past the transaction cap, so it is
        staged through CHUNK transactions and executed atomically as one
        bundle — the same path oversized packets take.
        """
        self._buffered_exec(proof.to_bytes(), Op.ACCOUNTABILITY,
                            tip_lamports, on_done)

    def submit_handshake(self, msg,
                         on_done: Optional[Callable[[DeliveryResult], None]] = None,
                         prelude: tuple[bytes, ...] = ()) -> None:
        """Ship one IBC handshake datagram to the guest behind
        ``prelude`` (e.g. the SIBLING_UPDATE its proof needs) — as
        leading instructions of one transaction when that fits the
        host's cap, else as leading transactions of a staged bundle."""
        from repro.ibc.messages import encode_handshake
        msg_bytes = encode_handshake(msg)
        tx = self._transaction(*prelude, ins.handshake(msg_bytes), fee=self.default_fee)
        if tx.serialized_size() > self.chain.config.max_transaction_bytes:
            self._buffered_exec(msg_bytes, Op.HANDSHAKE_EXEC, 10_000, on_done,
                                prelude=prelude)
            return
        self.chain.submit(tx, on_result=partial(_delivered_alone, on_done))

    # ------------------------------------------------------------------
    # Chunked light-client update (Fig. 4/5)
    # ------------------------------------------------------------------

    def submit_lc_update(self, update: LightClientUpdate,
                         window: Optional[int],
                         fee: Optional[FeeStrategy] = None,
                         on_done: Optional[Callable[[LcUpdateResult], None]] = None,
                         planner=plan_update_chunks) -> None:
        """Ship one counterparty header to the guest's light client.

        The staging transactions (data chunks and signature batches) are
        mutually independent, and the contract adopts the update in
        whichever of its transactions lands last (LC_FINALIZE names how
        many signature batches to expect).  With ``window=None`` the
        whole update, LC_FINALIZE included, is handed to the host at one
        instant and the host decides the order.  With a window at most
        that many staging transactions await their receipt at once, and
        LC_FINALIZE goes out when the last staging receipt is back — it
        lands last and adopts on the spot.  Either way the update is
        over when the last receipt is back.
        ``planner`` says what the transactions carry
        (:mod:`repro.lightclient.chunked`: the quorum prefix and a
        validator-set delta by default);
        :data:`repro.relayer.updates.LC_UPDATE_PLANS` pairs each planner
        with its window.  The result records the §V-A latency: time
        between the first and last executed host transaction.
        """
        plan = planner(
            update, self.contract.counterparty_client.trusted_validator_set(),
            tx_size_limit=self.chain.config.max_transaction_bytes,
            tracer=self.chain.sim.trace if self.chain.sim.trace.enabled else None,
        )
        buffer_id = next(_buffer_ids)
        fee = fee or self.default_fee

        total_chunks = len(plan.data_chunks)
        transactions = [
            self._transaction(ins.chunk(buffer_id, index, total_chunks, chunk),
                              fee=fee, staging=True)
            for index, chunk in enumerate(plan.data_chunks)]
        transactions += [
            self._transaction(
                ins.lc_sig_batch(buffer_id), fee=fee, staging=True,
                sig_verifies=tuple(
                    SigVerify(public_key, plan.sign_message, signature)
                    for public_key, signature in batch))
            for batch in plan.signature_batches]
        finalize = self._transaction(
            ins.lc_finalize(buffer_id, len(plan.signature_batches)),
            fee=fee, staging=True)

        LcUpload(self, update.header.height, plan, transactions + [finalize],
                 window, on_done).pump()

    # ------------------------------------------------------------------
    # Bundled operations (§V-A's 4–5 transactions, one block)
    # ------------------------------------------------------------------

    def _buffered_exec(self, msg_bytes: bytes, exec_op: Op,
                       tip_lamports: int,
                       on_done: Optional[Callable[[DeliveryResult], None]],
                       prelude: tuple[bytes, ...] = (),
                       packet_count: int = 1,
                       exec_fields: tuple = ()) -> None:
        """Stage ``msg_bytes`` (never empty for a message that is
        executed from its buffer) and run ``exec_op`` behind it, all in
        one atomic bundle.  The exec instruction's first field names the
        buffer (none when nothing was staged, which only BATCH_EXEC's
        format allows) and ``exec_fields`` are the rest.

        Bundle members execute in creation order, so prelude
        instructions (e.g. an idempotent SIBLING_UPDATE) run strictly
        before the exec — atomic update-then-prove in one host block."""
        buffer_id = next(_buffer_ids)
        chunk_size = usable_chunk_bytes(self.chain.config.max_transaction_bytes)
        chunks = [
            msg_bytes[offset : offset + chunk_size]
            for offset in range(0, len(msg_bytes), chunk_size)
        ]
        transactions = [self._transaction(data, fee=BaseFee())
                        for data in prelude]
        transactions += [
            self._transaction(ins.chunk(buffer_id, index, len(chunks), chunk),
                              fee=BaseFee(), staging=True)
            for index, chunk in enumerate(chunks)
        ]
        transactions.append(self._transaction(
            ins.encode(exec_op, buffer_id if chunks else None, *exec_fields),
            fee=BaseFee()))
        self.chain.submit_bundle(
            transactions, tip_lamports=tip_lamports,
            on_result=partial(_delivered_bundle, on_done, packet_count))

    # ------------------------------------------------------------------
    # Packet operations: one bundle, one or many packets
    # ------------------------------------------------------------------

    def batch_transactions(self, batch: Batch) -> int:
        """Host transactions :meth:`deliver` needs for ``batch``: whole
        CHUNK pieces until the rest fits the BATCH_EXEC transaction
        (whose opcode, buffer id and length prefix take 8 bytes of a
        piece)."""
        chunk_size = usable_chunk_bytes(self.chain.config.max_transaction_bytes)
        return -(-max(0, len(batch.payload) - (chunk_size - 8)) // chunk_size) + 1

    def deliver(self, ops: Batch | Sequence[BatchOp],
                tip_lamports: int = 10_000,
                on_done: Optional[Callable[[DeliveryResult], None]] = None,
                prelude: tuple[bytes, ...] = ()) -> None:
        """Ship packet operations — receives, acks, timeouts — to the
        guest as one atomic bundle, hence in one host block, behind
        ``prelude``.  How many there are picks the wire form.

        One operation is §V-A's bundle: its message, own proof included,
        staged through CHUNK transactions and run by its RECV_EXEC,
        ACK_EXEC or TIMEOUT_EXEC.  Two or more are a :class:`Batch`
        (a ``Batch`` given is shipped as built): one payload — a
        membership witness per proof height, then the entries — cut
        contiguously, whole pieces staged through CHUNK transactions
        into one buffer and the tail riding in the BATCH_EXEC
        transaction that runs it, so a payload that fits is that one
        transaction.  Against a bundle per packet the bundles drop from
        N to 1 and the proof bytes from N paths to the union of their
        nodes: the §V-A per-packet cost amortises across the batch.
        """
        if isinstance(ops, Batch):
            batch = ops
        elif len(ops) == 1:
            (op,) = ops
            self._buffered_exec(op.message(), op.exec_op(), tip_lamports,
                                on_done, prelude=prelude)
            return
        else:
            batch = Batch.of(ops)
        staged = (self.batch_transactions(batch) - 1) * usable_chunk_bytes(
            self.chain.config.max_transaction_bytes)
        self._buffered_exec(
            batch.payload[:staged], Op.BATCH_EXEC, tip_lamports, on_done,
            prelude=prelude, packet_count=len(batch.ops),
            exec_fields=(batch.payload[staged:],))


#: Resubmission cadence of a chunked light-client update while the host
#: RPC refuses (chaos blackout): :class:`LcUpload` parks its cursor and
#: retries at this period instead of losing its place mid-sequence.
BLACKOUT_RETRY_SECONDS = 2.0


class LcUpload:
    """One chunked light-client update on its way to the host: the
    transactions not yet submitted, and what the receipts so far add up
    to.  :meth:`pump` is its one continuation — every receipt runs it,
    and so does the blackout retry timer.  It is the one relayer write
    outside the relayer's bundle queue: its receipts drive a windowed
    stream with its own cursor, not a one-shot launch."""

    def __init__(self, api: GuestApi, height: int, plan, queue: list,
                 window: Optional[int],
                 on_done: Optional[Callable[[LcUpdateResult], None]]) -> None:
        self.api = api
        self.height = height
        self.transaction_count = plan.transaction_count
        self.signature_count = plan.signature_count
        #: LC_FINALIZE is the queue's last entry; under a window it
        #: waits there until nothing else is in flight.
        self.queue = queue
        self.finalize = queue[-1]
        self.one_wave = window is None
        self.window = len(queue) if window is None else window
        self.on_done = on_done
        self.first: Optional[float] = None
        self.last = 0.0
        self.fees = 0
        self.ok = True
        self.in_flight = 0
        self.peak = 0
        self.stalled = False

    def pump(self, receipt: Optional[TxReceipt] = None) -> None:
        chain = self.api.chain
        if receipt is None:
            self.stalled = False  # first call, or the retry timer
        else:
            self._track(receipt)
            self.in_flight -= 1
        queue = self.queue
        try:
            while queue and self.in_flight < self.window and (
                    self.one_wave or queue[0] is not self.finalize
                    or not self.in_flight):
                chain.submit(queue[0], on_result=self.pump)
                queue.pop(0)
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
        except HostUnavailableError:
            # Blackout mid-stream: keep the cursor where it is and resume
            # the sequence once the RPC answers (the staged buffer
            # on-chain is unaffected).  One retry timer per update:
            # receipts of the transactions still in flight keep arriving
            # and find the RPC down too.
            chain.sim.trace.count("chaos.lc_update.stalled")
            if not self.stalled:
                self.stalled = True
                chain.sim.schedule(BLACKOUT_RETRY_SECONDS, self.pump)
        # Over with the last receipt (a stale retry timer carries none).
        if (receipt is not None and self.on_done is not None
                and not (queue or self.in_flight)):
            self.on_done(LcUpdateResult(
                height=self.height,
                transaction_count=self.transaction_count,
                signature_count=self.signature_count,
                total_fee=self.fees,
                first_tx_time=self.first,
                last_tx_time=self.last,
                success=self.ok,
                peak_in_flight=self.peak,
            ))

    def _track(self, receipt: TxReceipt) -> None:
        if self.first is None or receipt.time < self.first:
            self.first = receipt.time
        self.last = max(self.last, receipt.time)
        self.fees += receipt.fee_paid
        if not receipt.success:
            self.ok = False


def _first_receipt(on_result: Optional[Callable[[TxReceipt], None]],
                   receipts: list[TxReceipt]) -> None:
    if on_result is not None:
        on_result(receipts[0])


def _delivered_alone(on_done: Optional[Callable[[DeliveryResult], None]],
                     receipt: TxReceipt) -> None:
    if on_done is not None:
        on_done(DeliveryResult(
            transaction_count=1, total_fee=receipt.fee_paid, slot=receipt.slot,
            success=receipt.success, error=receipt.error))


def _delivered_bundle(on_done: Optional[Callable[[DeliveryResult], None]],
                      packet_count: int, receipts: list[TxReceipt]) -> None:
    if on_done is not None:
        failures = [r for r in receipts if not r.success]
        on_done(DeliveryResult(
            transaction_count=len(receipts),
            total_fee=sum(r.fee_paid for r in receipts),
            slot=receipts[-1].slot,
            success=not failures,
            error=failures[0].error if failures else None,
            packet_count=packet_count,
            failed_entries=tuple(
                index
                for event in receipts[-1].events
                if event.name == "BatchProcessed"
                for index, _kind, _error in event.payload["failures"]),
        ))

