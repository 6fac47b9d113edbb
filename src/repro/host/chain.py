"""The host chain simulator: slots, mempool, execution, events.

One :class:`HostChain` actor runs on the simulation kernel, producing a
block every 400 ms (§IV).  Transactions are submitted to a mempool; how
long they wait there before a block picks them up is decided by their fee
strategy and the chain's current congestion level — the mechanism behind
the latency distributions of Fig. 2 and Fig. 4 and the fee clusters of
Fig. 3.

The slot loop is demand-driven: a chain whose mempool is empty schedules
nothing, and the next arriving transaction re-arms it on the same slot
grid, numbering the slots slept through — idle simulated time costs no
events (docs/PERFORMANCE.md, "Idle time is free").

Execution is transactional: the runtime verifies precompile signatures,
charges fees, snapshots the touched accounts, runs each instruction
through its program, and rolls everything back (except the fee) if any
instruction fails.  Bundles execute atomically within one block, matching
the Jito semantics the deployment used (§V-A).
"""

from __future__ import annotations

from repro import ids
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.crypto.keys import SignatureScheme
from repro.errors import HostError, HostUnavailableError, ProgramError, ReproError
from repro.host.accounts import Account, AccountsDb, Address
from repro.host.compute import ComputeMeter
from repro.host.events import HostEvent
from repro.host.programs import InvokeContext, Program
from repro.host.transaction import Transaction, TxReceipt
from repro.sim.kernel import Simulation
from repro.sim.rng import Rng
from repro.units import HOST_SLOT_SECONDS, MAX_COMPUTE_UNITS, MAX_TRANSACTION_BYTES

_bundle_ids = ids.mint("host.bundle")


@dataclass
class HostConfig:
    """Tunables of the host chain model."""

    slot_seconds: float = HOST_SLOT_SECONDS
    #: Network delay from a client to the chain's ingress, seconds.
    submit_delay_mean: float = 0.15
    #: Delay before off-chain observers see an emitted event (RPC poll).
    observe_delay_mean: float = 0.35
    #: Baseline mempool congestion in [0, 1].
    base_congestion: float = 0.30
    #: Amplitude of the diurnal congestion swing.
    diurnal_congestion: float = 0.15
    #: Probability that any given hour is a congestion spike...
    spike_probability: float = 0.04
    #: ...and the congestion level during a spike.
    spike_congestion: float = 0.92
    #: Maximum transactions per block (generous; we never saturate it).
    block_tx_limit: int = 2_048
    #: Serialized transaction size cap.  1232 bytes on Solana (§IV);
    #: other hosts differ (see repro.host.profiles).
    max_transaction_bytes: int = MAX_TRANSACTION_BYTES
    #: Per-transaction compute cap (1.4 M CU on Solana).
    max_compute_units: int = MAX_COMPUTE_UNITS


@dataclass
class HostBlock:
    """A produced block: receipts plus the events its programs emitted."""

    slot: int
    time: float
    receipts: list[TxReceipt] = field(default_factory=list)
    events: list[HostEvent] = field(default_factory=list)


@dataclass
class _PendingTx:
    transaction: Transaction
    ready_time: float
    on_result: Optional[Callable[[TxReceipt], None]]
    bundle_id: Optional[int] = None
    bundle_tip: int = 0
    bundle_peers: Optional[list["_PendingTx"]] = None


def _collect_bundle(receipts: list[TxReceipt], size: int,
                    on_result: Optional[Callable[[list[TxReceipt]], None]],
                    receipt: TxReceipt) -> None:
    """A bundle member's receipt: once all ``size`` are in, hand them to
    ``on_result`` in transaction order."""
    receipts.append(receipt)
    if len(receipts) == size and on_result is not None:
        on_result(sorted(receipts, key=lambda r: r.tx_id))


class HostChain:
    """The Solana-like host blockchain actor."""

    def __init__(self, sim: Simulation, scheme: SignatureScheme, config: Optional[HostConfig] = None) -> None:
        self.sim = sim
        self.scheme = scheme
        self.config = config or HostConfig()
        self.accounts = AccountsDb()
        #: Slots numbered up to the last tick accounted for; :attr:`slot`
        #: is the public reading.
        self._slot = 0
        #: Called with each produced block; the chain keeps none (nothing
        #: reads an old host block: the guest keeps its own snapshots).
        #: A slot slept through produces no block.
        self._block_listeners: list[Callable[[HostBlock], None]] = []
        self._programs: dict[Address, Program] = {}
        self._mempool: list[_PendingTx] = []
        #: Per event name, each observer with its own delay stream.
        self._subscribers: dict[
            str, list[tuple[Callable[[HostEvent], None], Rng]]] = {}
        self._rng = sim.rng.fork("host-chain")
        self._spike_cache: dict[int, bool] = {}
        #: Root of the per-hour spike sub-streams.  Minted once at
        #: construction without consuming a draw, so the spike schedule
        #: is a pure function of the chain's seed and the hour —
        #: independent of the order in which callers query
        #: :meth:`congestion_at` and of every other actor's draws.
        self._spike_seed = self._rng.derived_seed("congestion-spikes")
        #: Root of the observers' delay streams, minted the same way and
        #: never drawn from: watching the chain must not change it.
        self._observer_root = Rng(self._rng.derived_seed("event-observers"))
        #: Optional fault policy (duck-typed; see repro.chaos.injector).
        #: Consulted at the RPC edge (submit), in the congestion model
        #: (fee spikes) and in slot production (stalls).
        self.chaos = None
        #: The slot grid: when the next tick not yet accounted for is
        #: due.  Always advanced by adding ``slot_seconds`` to the tick
        #: before it, one addition per slot, so a block lands on the
        #: same float instant however long the chain slept before it.
        self._next_tick = sim.now + self.config.slot_seconds
        #: The scheduled tick, or ``None`` while the chain sleeps (it
        #: starts awake: the first slot always ticks).
        self._slot_handle = sim.schedule_at(self._next_tick, self._produce_slot)

    # ------------------------------------------------------------------
    # Deployment and funding
    # ------------------------------------------------------------------

    def deploy(self, program: Program) -> None:
        if program.program_id in self._programs:
            raise HostError(f"program {program.program_id.short()} already deployed")
        self._programs[program.program_id] = program

    def airdrop(self, address: Address, lamports: int) -> None:
        """Test/bootstrap faucet."""
        self.accounts.credit(address, lamports)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        transaction: Transaction,
        on_result: Optional[Callable[[TxReceipt], None]] = None,
    ) -> None:
        """Send a transaction toward the mempool.

        Size violations raise immediately (the RPC node rejects oversized
        transactions before broadcast), so callers must chunk payloads.
        During a chaos blackout the RPC refuses outright
        (:class:`HostUnavailableError`, nothing broadcast); a chaos
        drop loses the transaction in transit — the caller's
        ``on_result`` sees a failed receipt after the usual delays.
        """
        transaction.check_size(self.config.max_transaction_bytes)
        if self.chaos is not None:
            self._check_rpc_available()
            if self.chaos.drop_tx(self.sim.now):
                self.sim.trace.count("chaos.host.tx_dropped")
                self.sim.schedule(
                    self._submit_latency() + self._observe_latency(),
                    self._report_dropped, transaction, on_result)
                return
        arrival = self._submit_latency()
        self.sim.trace.count("host.tx.submitted")
        self.sim.trace.begin("host.submit", key=transaction.tx_id, actor="host")
        self.sim.schedule(arrival, self._arrive, transaction, on_result, None, 0, None)

    def submit_bundle(
        self,
        transactions: list[Transaction],
        tip_lamports: int,
        on_result: Optional[Callable[[list[TxReceipt]], None]] = None,
    ) -> None:
        """Send an atomic bundle (Jito semantics): every transaction lands
        in the same block or none do; the tip is paid once, by the first
        transaction's payer."""
        if not transactions:
            raise HostError("empty bundle")
        for transaction in transactions:
            transaction.check_size(self.config.max_transaction_bytes)
        if self.chaos is not None:
            self._check_rpc_available()
            if self.chaos.drop_tx(self.sim.now):
                self.sim.trace.count("chaos.host.bundles_dropped")
                self.sim.schedule(
                    self._submit_latency() + self._observe_latency(),
                    self._report_dropped_bundle, list(transactions), on_result)
                return
        bundle_id = next(_bundle_ids)
        collect = partial(_collect_bundle, [], len(transactions), on_result)
        arrival = self._submit_latency()
        peers: list[_PendingTx] = []
        self.sim.trace.count("host.bundles.submitted")
        for index, transaction in enumerate(transactions):
            tip = tip_lamports if index == 0 else 0
            self.sim.trace.count("host.tx.submitted")
            self.sim.trace.begin("host.submit", key=transaction.tx_id, actor="host")
            self.sim.schedule(
                arrival, self._arrive, transaction, collect, bundle_id, tip, peers,
            )

    def _submit_latency(self) -> float:
        return self._rng.expovariate(1.0 / self.config.submit_delay_mean)

    def _observe_latency(self) -> float:
        return self._rng.expovariate(1.0 / self.config.observe_delay_mean)

    # ------------------------------------------------------------------
    # Chaos fault edges (docs/CHAOS.md)
    # ------------------------------------------------------------------

    def _check_rpc_available(self) -> None:
        if self.chaos is not None and self.chaos.rpc_blocked(self.sim.now):
            self.sim.trace.count("chaos.host.rpc_refused")
            raise HostUnavailableError("host RPC blackout (chaos)")

    def _dropped_receipt(self, transaction: Transaction) -> TxReceipt:
        return TxReceipt(
            tx_id=transaction.tx_id, slot=self.slot, time=self.sim.now,
            success=False, fee_paid=0, compute_consumed=0,
            error="transaction dropped in transit (chaos)",
        )

    def _report_dropped(
        self,
        transaction: Transaction,
        on_result: Optional[Callable[[TxReceipt], None]],
    ) -> None:
        if on_result is not None:
            on_result(self._dropped_receipt(transaction))

    def _report_dropped_bundle(
        self,
        transactions: list[Transaction],
        on_result: Optional[Callable[[list[TxReceipt]], None]],
    ) -> None:
        if on_result is not None:
            on_result(sorted(
                (self._dropped_receipt(tx) for tx in transactions),
                key=lambda receipt: receipt.tx_id,
            ))

    def _arrive(
        self,
        transaction: Transaction,
        on_result: Optional[Callable[[TxReceipt], None]],
        bundle_id: Optional[int],
        bundle_tip: int,
        bundle_peers: Optional[list[_PendingTx]],
    ) -> None:
        self.sim.trace.finish("host.submit", key=transaction.tx_id)
        self.sim.trace.begin("host.mempool", key=transaction.tx_id, actor="host")
        congestion = self.congestion_now()
        delay = transaction.fee_strategy.scheduling_delay(self._rng, congestion)
        pending = _PendingTx(
            transaction=transaction,
            ready_time=self.sim.now + delay,
            on_result=on_result,
            bundle_id=bundle_id,
            bundle_tip=bundle_tip,
            bundle_peers=bundle_peers,
        )
        if bundle_peers is not None:
            bundle_peers.append(pending)
            # A bundle becomes ready when its slowest member is ready; keep
            # all members aligned on the max so they land together.
            latest = max(peer.ready_time for peer in bundle_peers)
            for peer in bundle_peers:
                peer.ready_time = latest
        self._mempool.append(pending)
        if self._slot_handle is None:
            self._settle_slept_slots()
            self._rearm()

    # ------------------------------------------------------------------
    # Congestion model
    # ------------------------------------------------------------------

    def congestion_now(self) -> float:
        return self.congestion_at(self.sim.now)

    def congestion_at(self, time: float) -> float:
        """Mempool congestion level in [0, 1] at a simulated time.

        Baseline + diurnal sinusoid + occasional hour-long spikes.  Each
        hour's spike flag comes from its own deterministic sub-stream
        (seeded by ``(chain seed, hour)``), never from the shared fork
        RNG: querying hours in any order — or under any workload — yields
        the same spike schedule for the same simulation seed.
        """
        if self.chaos is not None:
            override = self.chaos.congestion_override(time)
            if override is not None:
                return override
        hour = int(time // 3600)
        spike = self._spike_cache.get(hour)
        if spike is None:
            draw = random.Random((self._spike_seed << 20) ^ hour).random()
            spike = draw < self.config.spike_probability
            self._spike_cache[hour] = spike
        if spike:
            return self.config.spike_congestion
        level = self.config.base_congestion + self.config.diurnal_congestion * math.sin(
            2.0 * math.pi * (time % 86_400.0) / 86_400.0
        )
        return min(1.0, max(0.0, level))

    # ------------------------------------------------------------------
    # Block production
    # ------------------------------------------------------------------

    @property
    def slot(self) -> int:
        """The current slot number, whether the chain ticks or sleeps.

        Read from outside the event loop it counts every tick due at or
        before ``sim.now`` (``run_until(t)`` has run those).  On a
        sleeping chain the read settles the slept slots' account, so
        ``host.blocks + host.slots.idle + chaos.host.slots_stalled`` is
        the slots elapsed as of the last read or wake-up.
        """
        if self._slot_handle is None:
            self._settle_slept_slots()
        return self._slot

    def _settle_slept_slots(self) -> None:
        """Walk the grid over the ticks a sleeping chain skipped (those
        due at or before now): number them, except under a slot stall."""
        now = self.sim.now
        tick = self._next_tick
        slot_seconds = self.config.slot_seconds
        chaos = self.chaos
        idle = stalled = 0
        while tick <= now:
            if chaos is not None and chaos.slot_stalled(tick):
                stalled += 1
            else:
                idle += 1
            tick += slot_seconds
        self._next_tick = tick
        self._slot += idle
        trace = self.sim.trace
        if idle:
            trace.count("host.slots.idle", idle)
        if stalled:
            trace.count("chaos.host.slots_stalled", stalled)

    def _rearm(self) -> None:
        """Schedule the next tick — if a transaction is waiting for it.

        A block that leaves the mempool empty schedules nothing;
        :meth:`_arrive`, the only writer of the mempool, wakes the chain.
        The wake-up tick therefore takes its heap sequence number at the
        wake-up, not at the tick before it: an event due at *exactly*
        that grid instant and scheduled between the two moments would
        run before the tick where an always-ticking chain ran it after.
        Nothing schedules one — whatever follows from the host
        (arrivals, receipts, subscriber deliveries) is delayed by a
        continuous exponential draw, and the one fixed-period actor
        (counterparty blocks) schedules itself more than a slot ahead,
        before the tick either way
        (``tests/test_host_chain.py::TestAgainstTickingHost``).
        """
        self._slot_handle = (
            self.sim.schedule_at(self._next_tick, self._produce_slot)
            if self._mempool else None)

    def _produce_slot(self) -> None:
        self._next_tick = self.sim.now + self.config.slot_seconds
        if self.chaos is not None and self.chaos.slot_stalled(self.sim.now):
            # Leader offline: no block this slot; the mempool keeps
            # accumulating and drains when production resumes.
            self.sim.trace.count("chaos.host.slots_stalled")
            self._rearm()
            return
        self._slot += 1
        trace = self.sim.trace
        trace.gauge("host.mempool.depth", len(self._mempool))
        block = HostBlock(slot=self._slot, time=self.sim.now)

        # Single pass: split the mempool into ready candidates and the
        # not-yet-ready remainder, instead of rescanning the whole pool a
        # second time to subtract what the block took.
        now = self.sim.now
        ready: list[_PendingTx] = []
        waiting: list[_PendingTx] = []
        for pending in self._mempool:
            (ready if pending.ready_time <= now else waiting).append(pending)
        ready.sort(key=lambda p: (p.ready_time, p.transaction.tx_id))
        selected, rejected_bundles = self._select_for_block(ready)
        taken = {id(p) for p in selected}
        taken.update(id(p) for members in rejected_bundles for p in members)
        waiting.extend(p for p in ready if id(p) not in taken)
        self._mempool = waiting

        # Group bundle members so they execute consecutively/atomically.
        singles = [p for p in selected if p.bundle_id is None]
        bundles: dict[int, list[_PendingTx]] = {}
        for pending in selected:
            if pending.bundle_id is not None:
                bundles.setdefault(pending.bundle_id, []).append(pending)

        for pending in singles:
            receipt = self._execute(pending, block)
            self._finish(pending, receipt, block)
        for members in bundles.values():
            self._execute_bundle(members, block)
        for members in rejected_bundles:
            self._reject_bundle(members, block)

        trace.count("host.blocks")
        for listener in self._block_listeners:
            listener(block)
        for event in block.events:
            self._dispatch(event)
        self._rearm()

    def _select_for_block(
        self, ready: list[_PendingTx],
    ) -> tuple[list[_PendingTx], list[list[_PendingTx]]]:
        """Pick the transactions this block executes, honouring both the
        block transaction limit and bundle atomicity.

        A bundle is included only if *all* its ready members fit in the
        remaining capacity; otherwise the whole bundle defers to a later
        slot (Jito semantics — truncating mid-bundle would execute it
        partially, violating :meth:`submit_bundle`'s contract).  A bundle
        larger than the block limit itself can never land and is
        rejected outright (second return value) rather than deferred
        forever.
        """
        limit = self.config.block_tx_limit
        selected: list[_PendingTx] = []
        rejected: list[list[_PendingTx]] = []
        by_bundle: dict[int, list[_PendingTx]] = {}
        for pending in ready:
            if pending.bundle_id is not None:
                by_bundle.setdefault(pending.bundle_id, []).append(pending)

        considered: set[int] = set()
        for pending in ready:
            if pending.bundle_id is None:
                if len(selected) < limit:
                    selected.append(pending)
                continue
            if pending.bundle_id in considered:
                continue
            considered.add(pending.bundle_id)
            group = by_bundle[pending.bundle_id]
            expected = (
                len(pending.bundle_peers)
                if pending.bundle_peers is not None else len(group)
            )
            if len(group) < expected:
                continue  # a member is still in transit; wait for it
            if len(group) > limit:
                rejected.append(group)
                continue
            if len(selected) + len(group) > limit:
                self.sim.trace.count("host.bundles.deferred")
                continue
            selected.extend(group)
        return selected, rejected

    def _reject_bundle(self, members: list[_PendingTx], block: HostBlock) -> None:
        """Fail a bundle that can never fit any block (no fee charged —
        it is dropped before execution, like an oversized Jito bundle)."""
        self.sim.trace.count("host.bundles.rejected")
        for pending in members:
            receipt = TxReceipt(
                tx_id=pending.transaction.tx_id, slot=block.slot,
                time=self.sim.now, success=False, fee_paid=0,
                compute_consumed=0,
                error=f"bundle of {len(members)} transactions exceeds the "
                      f"block limit of {self.config.block_tx_limit}",
                bundle_id=pending.bundle_id,
            )
            self._finish(pending, receipt, block)

    def _execute_bundle(self, members: list[_PendingTx], block: HostBlock) -> None:
        """Run a bundle atomically: snapshot across all members, roll the
        whole group back if any member fails."""
        snapshots = self._snapshot(frozenset().union(
            *(m.transaction.unique_accounts() for m in members)
        ))
        burned_checkpoint = self.accounts.burned_fees
        events_checkpoint = len(block.events)
        receipts: list[TxReceipt] = []
        failed = False
        for pending in members:
            receipt = self._execute(pending, block)
            receipts.append(receipt)
            if not receipt.success:
                failed = True
                break
        if failed:
            first_error = next(
                (r.error for r in receipts if not r.success and r.error), "unknown",
            )
            self._restore(snapshots)
            self.accounts.burned_fees = burned_checkpoint
            del block.events[events_checkpoint:]
            # All members fail together; fees for attempted ones are kept
            # (charged inside _execute before the rollback snapshot is
            # restored), so re-charge them explicitly after restore.
            receipts = []
            for pending in members:
                transaction = pending.transaction
                fee = self._fee_for(pending)
                fee_paid = 0
                try:
                    self.accounts.burn_fee(transaction.payer, fee)
                    fee_paid = fee
                except ReproError:
                    pass
                receipts.append(TxReceipt(
                    tx_id=transaction.tx_id, slot=block.slot, time=self.sim.now,
                    success=False, fee_paid=fee_paid, compute_consumed=0,
                    error=f"bundle failed atomically: {first_error}",
                    bundle_id=pending.bundle_id,
                ))
        for pending, receipt in zip(members, receipts):
            self._finish(pending, receipt, block)

    def _fee_for(self, pending: _PendingTx) -> int:
        transaction = pending.transaction
        budget = transaction.compute_budget or self.config.max_compute_units
        fee = transaction.fee_strategy.fee(
            transaction.signature_count, transaction.verify_count, budget
        )
        return fee + pending.bundle_tip

    def _execute(self, pending: _PendingTx, block: HostBlock) -> TxReceipt:
        transaction = pending.transaction
        self.sim.trace.finish("host.mempool", key=transaction.tx_id)
        fee = self._fee_for(pending)
        try:
            self.accounts.burn_fee(transaction.payer, fee)
        except ReproError as exc:
            return TxReceipt(
                tx_id=transaction.tx_id, slot=block.slot, time=self.sim.now,
                success=False, fee_paid=0, compute_consumed=0,
                error=f"fee payment failed: {exc}", bundle_id=pending.bundle_id,
            )

        # Runtime-level signature verification (the Ed25519 precompile).
        # One batched call per transaction: like the real precompile, the
        # whole list is checked up front and any failure rejects the tx,
        # so batch all-or-nothing semantics match exactly.
        if not self.scheme.verify_batch(
            [(e.public_key, e.message, e.signature) for e in transaction.sig_verifies]
        ):
            return TxReceipt(
                tx_id=transaction.tx_id, slot=block.slot, time=self.sim.now,
                success=False, fee_paid=fee, compute_consumed=0,
                error="precompile signature verification failed",
                bundle_id=pending.bundle_id,
            )
        verified = [(e.public_key, e.message) for e in transaction.sig_verifies]
        verified_entries = [
            (e.public_key, e.message, e.signature)
            for e in transaction.sig_verifies
        ]

        meter = ComputeMeter(
            min(transaction.compute_budget or self.config.max_compute_units,
                self.config.max_compute_units),
            hard_cap=self.config.max_compute_units,
        )
        snapshots = self._snapshot(transaction.unique_accounts())
        signers = frozenset((transaction.payer,) + transaction.extra_signers)
        events: list[HostEvent] = []
        try:
            for instruction in transaction.instructions:
                program = self._programs.get(instruction.program_id)
                if program is None:
                    raise ProgramError(
                        f"no program at {instruction.program_id.short()}"
                    )
                meter.charge(1_000)  # invocation overhead
                ctx = InvokeContext(
                    chain=self,
                    accounts_db=self.accounts,
                    instruction_accounts=instruction.accounts,
                    payer=transaction.payer,
                    signers=signers,
                    meter=meter,
                    slot=block.slot,
                    unix_time=self.sim.now,
                    verified_signatures=tuple(verified),
                    verified_signature_entries=tuple(verified_entries),
                )
                program.execute(ctx, instruction.data)
                events.extend(ctx.emitted_events)
        except (ReproError, ValueError) as exc:
            # ValueError covers malformed instruction data (truncated
            # buffers, bad enum tags): the runtime aborts the transaction
            # exactly like a program error.
            self._restore(snapshots)
            return TxReceipt(
                tx_id=transaction.tx_id, slot=block.slot, time=self.sim.now,
                success=False, fee_paid=fee, compute_consumed=meter.consumed,
                error=str(exc), bundle_id=pending.bundle_id,
            )

        block.events.extend(events)
        return TxReceipt(
            tx_id=transaction.tx_id, slot=block.slot, time=self.sim.now,
            success=True, fee_paid=fee, compute_consumed=meter.consumed,
            bundle_id=pending.bundle_id, events=tuple(events),
        )

    def _finish(self, pending: _PendingTx, receipt: TxReceipt, block: HostBlock) -> None:
        trace = self.sim.trace
        if receipt.success:
            trace.count("host.tx.executed")
            trace.observe("host.cu_consumed", receipt.compute_consumed)
        else:
            trace.count("host.tx.failed")
            # A deferred-then-rejected bundle member still holds an open
            # mempool span; close it so the report has no dangling work.
            trace.finish("host.mempool", key=receipt.tx_id)
        trace.observe("host.fee_paid", receipt.fee_paid)
        block.receipts.append(receipt)
        if pending.on_result is not None:
            delay = self._rng.expovariate(1.0 / self.config.observe_delay_mean)
            trace.observe("host.observe_delay", delay)
            self.sim.schedule(delay, pending.on_result, receipt)

    def _snapshot(self, addresses: frozenset[Address]) -> dict[Address, Optional[tuple]]:
        snaps: dict[Address, Optional[tuple]] = {}
        for address in addresses:
            account = self.accounts.get(address)
            snaps[address] = account.snapshot() if account is not None else None
        return snaps

    def _restore(self, snapshots: dict[Address, Optional[tuple]]) -> None:
        for address, snap in snapshots.items():
            account = self.accounts.get(address)
            if snap is None:
                # The account did not exist before this transaction:
                # remove it outright.  Restoring an empty shell instead
                # would leave a phantom account behind — visible to
                # existence checks and double-allocation guards.
                if account is not None:
                    self.accounts.remove(address)
            else:
                self.accounts.account(address).restore(snap)

    # ------------------------------------------------------------------
    # Event subscription
    # ------------------------------------------------------------------

    def on_block(self, listener: Callable[[HostBlock], None]) -> None:
        """Register a callback fired (synchronously) with each produced
        block, its receipts and events — a block explorer's view."""
        self._block_listeners.append(listener)

    def subscribe(self, event_name: str, callback: Callable[[HostEvent], None]) -> None:
        """Register an off-chain observer for an event name.  Delivery is
        delayed by the observation latency (RPC polling), drawn from a
        stream of the subscription's own — a function of the chain's
        seed, the event name and how many observers of it came before —
        so one more observer, whenever it attaches, moves no draw of the
        chain or of any other observer."""
        observers = self._subscribers.setdefault(event_name, [])
        observers.append((callback, Rng(self._observer_root.derived_seed(
            f"{event_name}/{len(observers)}"))))

    def _dispatch(self, event: HostEvent) -> None:
        for callback, stream in self._subscribers.get(event.name, ()):
            delay = stream.expovariate(1.0 / self.config.observe_delay_mean)
            self.sim.trace.count("host.events.delivered")
            self.sim.trace.observe("host.observe_delay", delay)
            self.sim.schedule(delay, callback, event)

    # ------------------------------------------------------------------
    # Introspection used by tests and experiments
    # ------------------------------------------------------------------

    def total_fees_burned(self) -> int:
        return self.accounts.burned_fees
