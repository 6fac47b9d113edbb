"""The IBC relayer (Alg. 2, lower half): one algorithm over two ends.

The relayer is permissionless and untrusted: everything it submits is
proof-checked on-chain, so a faulty relayer can only *delay* packets,
never forge them (§III-C).  It is written once over a pair of
:mod:`~repro.relayer.endpoint` ends — a guest and a counterparty, or
two guests on one host — and moves, in each direction:

* **packets**: a send committed by a source block (a finalised guest
  block, Alg. 2 lines 4–10, or a committed counterparty block) is proven
  at a height the destination's client covers and delivered;
* **acknowledgements**: the ack a block wrote is proven back to the
  source, and once the source's block accepting it is read, the
  receiving guest is told to seal it (§III-A);
* **timeouts**: a send the destination's block is the first past the
  deadline of, with no receipt there, is cancelled on the source with a
  proof of the receipt's absence — toward either end kind;
* **handshakes**: :meth:`open_connection` / :meth:`open_channel` run the
  ICS-03/04 dances of :mod:`~repro.relayer.handshake`.

All four packet datagrams come from one intake, :meth:`Relayer._relay_block`
— ICS-18's ``pendingDatagrams`` for one block, read from the two chains'
write indexes and probes — run per finalised guest block, per committed
counterparty block, and by :meth:`Relayer.restart` over every height that
may still owe something.

How each client is brought to a proof height is the business of the
end's :mod:`~repro.relayer.updates` strategy, behind one call,
``cover``: a header push or a sibling adoption rides in front of the
datagram it proves, and only a chunked Tendermint update is awaited.
Every guest-side submission goes through one pipeline — batch, bundle
queue, circuit breaker, bounded idempotent retry (docs/CHAOS.md) — so
every flow is blackout-safe the same way.  The relayer keeps nothing a
crash must restore.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import HostUnavailableError, ReproError
from repro.guest.api import Batch, BatchOp, DeliveryResult, LcUpdateResult
from repro.host.chain import HostChain
from repro.host.events import HostEvent
from repro.ibc import commitment as paths
from repro.ibc.channel import ChannelOrder
from repro.ibc.identifiers import ChannelId, ConnectionId, PortId
from repro.ibc.packet import Packet
from repro.relayer.endpoint import GuestEnd
from repro.relayer.handshake import CHANNEL, CONNECTION, Handshake, Side
from repro.relayer.resilience import CircuitBreaker, RetryPolicy
from repro.relayer.strategy import SpendLedger
from repro.relayer.updates import updates_for
from repro.sim.kernel import Simulation
from repro.sim.rng import Rng

#: Tip paid per delivery bundle.  The deployment's relayer used "the
#: default Solana fee model" (§V-B) — its ReceivePacket transactions
#: landed together without paying a tip — so it is zero.
BUNDLE_TIP_LAMPORTS = 0
#: Cap on the transactions of one coalesced bundle, its BATCH_EXEC
#: included.  A bundle lands whole, in what is left of one host block
#: when it comes up: the more transactions it has, the longer a busy
#: host defers it.  A flush whose payload needs more is halved.
BATCH_MAX_BUNDLE_TXS = 8
#: Watchdog period, seconds: re-kicks LC updates and bundle pumps that
#: an error path or crash left wedged.
WATCHDOG_SECONDS = 45.0


@dataclass
class RelayerConfig:
    """Relayer tunables (docs/WORKLOAD.md)."""

    #: Maximum packet operations coalesced into one delivery bundle.
    #: 1 (the default) keeps the classic one-bundle-per-packet flow of
    #: §V-A; higher values enable BATCH_EXEC coalescing — pending
    #: RecvPacket/ack work accumulates and flushes as a single bundle.
    batch_max_packets: int = 1
    #: How long a partially filled batch may wait before it is flushed.
    batch_flush_seconds: float = 1.0
    #: What a chunked LC update carries: a key of
    #: :data:`repro.relayer.updates.LC_UPDATE_PLANS`.
    lc_update_plan: str = "quorum"


@dataclass
class RelayerMetrics:
    """What the §V-B experiments read off the relayer."""

    lc_updates: list[LcUpdateResult] = field(default_factory=list)
    deliveries: list[DeliveryResult] = field(default_factory=list)
    acks_returned: list[DeliveryResult] = field(default_factory=list)
    packets_relayed_to_counterparty: int = 0
    packets_relayed_to_guest: int = 0
    timeouts_cancelled: int = 0
    #: Recovery accounting (docs/CHAOS.md / BENCH_chaos.json).
    retries: int = 0
    redeliveries: int = 0
    crashes: int = 0


class Relayer:
    """One relayer bridging the two ends of a link.

    ``a`` and ``b`` are the link's ends; a guest↔counterparty link is
    wired ``(GuestEnd, CounterpartyEnd)``.
    """

    def __init__(self, sim: Simulation, host: HostChain, a, b,
                 config: Optional[RelayerConfig] = None,
                 retry_label: str = "relayer-retry") -> None:
        self.sim = sim
        self.host = host
        self.a = a
        self.b = b
        self.config = config or RelayerConfig()
        self.metrics = RelayerMetrics()
        #: §V-B bookkeeping: every lamport this relayer burns, by flow.
        self.ledger = SpendLedger()
        #: Ends observed through host events (the others through their
        #: chain's block subscription).
        self._guests = tuple(end for end in (a, b) if isinstance(end, GuestEnd))
        self._counterparties = tuple(
            end for end in (a, b) if end not in self._guests)
        for end in (a, b):
            end.updates = updates_for(self, end, self._peer(end))

        #: Down, between :meth:`crash` and :meth:`restart`: the relayer
        #: observes nothing and submits nothing.
        self.paused = False
        #: Delivery bundles not yet handed to the host.
        self._bundle_queue: deque[Callable[[], None]] = deque()
        self._pump_retry_handle = None

        # -- recovery machinery (docs/CHAOS.md) ------------------------
        #: A failed delivery/ack resubmits with exponential backoff and
        #: deterministic jitter, after an idempotency check against the
        #: destination's on-chain record (no double delivery, ever).
        self.retry_policy = RetryPolicy()
        #: Over the host RPC edge: after consecutive blackout refusals
        #: the relayer stops hammering the endpoint and probes on a
        #: doubling interval instead.
        self.breaker = CircuitBreaker(sim, name="relay.breaker")
        #: Jitter stream minted via ``derived_seed`` so retries never
        #: perturb the draws the rest of the simulation would make.
        self._retry_rng = Rng(sim.rng.derived_seed(retry_label))
        #: Bumped by :meth:`crash`; callbacks capture the value at
        #: submission and drop themselves if it moved (a dead process's
        #: callbacks never run).
        self._incarnation = 0
        sim.schedule(WATCHDOG_SECONDS, self._watchdog)

        host.subscribe("FinalisedBlock", self._on_finalised_block)
        host.subscribe("HandshakeStep", self._on_handshake_step)
        for end in self._counterparties:
            end.chain.on_block(
                lambda height, src=end: self._on_counterparty_block(src, height))

    def _peer(self, end):
        return self.b if end is self.a else self.a

    def _guest_for(self, event: HostEvent) -> Optional[GuestEnd]:
        """The end an event belongs to; None for another guest on the
        same host (multi-guest fabric)."""
        return next((end for end in self._guests if end.observes(event)), None)

    # ==================================================================
    # Intake: what a block owes (ICS-18 pendingDatagrams)
    # ==================================================================

    def _on_finalised_block(self, event: HostEvent) -> None:
        src = self._guest_for(event)
        if src is not None and not self.paused:  # a down relayer is deaf
            self._relay_block(src, event.payload["height"])

    def _on_counterparty_block(self, src, height: int) -> None:
        if not self.paused:
            self._relay_block(src, height)

    def _relay_block(self, src, height: int) -> int:
        """Relay what ``src``'s block at ``height`` owes its peer, read
        from the two chains through ``src``'s write index at ``height``:

        * a receive for each send it committed, still committed and not
          yet received;
        * an ack return for each ack it wrote whose origin commitment
          still stands;
        * a confirm-seal for each ack it accepted that the receiving
          guest has not yet confirmed (no proof: it goes out at once);
        * a timeout for each peer send whose deadline it is the first
          block past, with no receipt here;

        the proven ones, with the handshake steps it commits and an epoch
        change the peer has not seen, behind the block's one cover.
        Writes are taken in execution order, a guest block's packets
        first (Alg. 2), a counterparty block's sends last.  Returns how
        many datagrams the block owed."""
        dst = self._peer(src)
        writes = src.ibc.writes.get(height, ())
        sends = [write for write in writes if write.kind == "send"]
        rest = [write for write in writes if write.kind != "send"]
        owed, confirms = [], []
        for kind, packet, _, ack in (
                sends + rest if src in self._guests else rest + sends):
            if kind == "send" and self._owes(src, dst, "recv", packet):
                owed.append(("recv", packet, None))
            elif (kind == "ack" and src.receives(packet)
                  and self._owes(src, dst, "ack", packet)):
                owed.append(("ack", packet, ack))
            elif (kind == "acked" and src.sends(packet)
                  and dst.ibc.awaits_confirm(packet)):
                # Behind the block's first covered datagram if one came
                # before it, as the chain executed them.
                confirms.append((bool(owed), packet))
        owed += [("timeout", packet, None) for packet in dst.ibc.expiring(
            src.time(height - 1), src.time(height))
            if self._owes(src, dst, "timeout", packet)]
        ready = src.take_waiters(height) if src in self._guests else ()
        epoch_change = (src in self._guests
                        and src.contract.block_at(height).header.last_in_epoch
                        and height > dst.client.latest_height())

        deferred = False

        def relay(covered: int) -> None:
            for kind, packet, ack in owed:
                if deferred and not self._owes(src, dst, kind, packet):
                    continue  # settled while the cover was awaited
                try:
                    proof = self._prove(src, kind, packet, covered)
                except ReproError:
                    continue  # view pruned, or settled meanwhile
                self._send(dst, BatchOp(kind=kind, packet=packet, proof=proof,
                                        proof_height=covered, ack=ack))
            for _, action in ready:
                action(covered)

        for late, packet in confirms:
            if not late:
                self._confirm_seal(dst, packet)
        # Alg. 2 line 5: a block that owes nothing proven stays local.
        if owed or ready or epoch_change:
            dst.updates.cover(height, relay)
            # A cover that ran ``relay`` at once read the chains above; one
            # that queued it has it read them again when it releases it.
            deferred = True
        for late, packet in confirms:
            if late:
                self._confirm_seal(dst, packet)
        return len(owed) + len(confirms)

    @staticmethod
    def _prove(src, kind: str, packet: Packet, height: int):
        """``src``'s proof at ``height`` behind a ``kind`` datagram: the
        send's commitment, the ack, or the receipt's absence."""
        view = src.view(height)
        if kind == "recv":
            return view.prove_seq(paths.commitment_prefix(
                packet.source_port, packet.source_channel), packet.sequence)
        prefix = (paths.ack_prefix if kind == "ack" else paths.receipt_prefix)(
            packet.destination_port, packet.destination_channel)
        if kind == "ack":
            return view.prove_seq(prefix, packet.sequence)
        return view.prove_seq_absence(prefix, packet.sequence)

    @staticmethod
    def _owes(src, dst, kind: str, packet: Packet) -> bool:
        """Does ``src`` owe ``dst`` this ``kind`` of datagram, read from
        both chains now?  A receive or a timeout: the packet is still
        committed on its sender and not received; an ack: the sender
        still holds the commitment."""
        if kind == "ack":
            return dst.has_commitment(packet)
        sender, receiver = (src, dst) if kind == "recv" else (dst, src)
        return (sender.sends(packet) and sender.has_commitment(packet)
                and not receiver.has_receipt(packet))

    # ==================================================================
    # Packet datagrams, either direction
    # ==================================================================

    def _send(self, dst, op: BatchOp) -> None:
        """Hand one packet datagram to ``dst``: a guest takes it through
        the bundle pipeline, a counterparty in its next block."""
        if dst in self._guests:
            span = None
            if op.kind == "recv":
                span = self.sim.trace.span(
                    self._peer(dst).hop_span, key=op.packet.sequence,
                    actor="relayer")
            self._dispatch_guest_op(dst, op, span)
        else:
            self._submit_to_counterparty(dst, op)

    def _submit_to_counterparty(self, dst, op: BatchOp) -> None:
        packet, kind, ibc = op.packet, op.kind, dst.ibc
        call = {
            "recv": lambda: ibc.recv_packet(packet, op.proof, op.proof_height,
                                            local_time=self.sim.now),
            "ack": lambda: ibc.acknowledge_packet(packet, op.ack, op.proof,
                                                  op.proof_height),
            "timeout": lambda: ibc.timeout_packet(packet, op.proof, op.proof_height),
        }[kind]
        if kind == "recv":
            # Finalised on the guest -> committed on the counterparty
            # (the tail of the packet's trace tree).
            self.sim.trace.begin("packet.relay", key=packet.sequence, actor="relayer")

        def after(result, cp_height: int) -> None:
            if isinstance(result, ReproError):
                # A receipt already there is a double delivery, a cleared
                # commitment an ack or timeout that landed before (a
                # competing relayer, a replay after a restart); anything
                # else is the chain refusing the datagram, e.g. behind a
                # header push it refused.
                noun = {"recv": "deliveries", "ack": "acks"}.get(kind, "timeouts")
                self.sim.trace.count(
                    f"relay.duplicate_{noun}" if self._op_already_applied(dst, op)
                    else f"relay.{noun}.refused")
                return
            if kind == "recv":
                self.sim.trace.finish("packet.relay", key=packet.sequence,
                                      cp_height=cp_height)
                self.sim.trace.count("relay.packets.to_counterparty")
                self.metrics.packets_relayed_to_counterparty += 1
            elif kind == "timeout":
                self.sim.trace.count("relay.timeouts.cancelled")
                self.metrics.timeouts_cancelled += 1

        dst.chain.submit(call, on_result=after)

    @staticmethod
    def _op_already_applied(dst, op: BatchOp) -> bool:
        """Idempotency check before a resubmission: did an earlier
        attempt — ours pre-crash, or a rival relayer's — already land
        this operation on ``dst``?"""
        if op.kind == "recv":
            return dst.has_receipt(op.packet)
        # The sender clears the packet commitment when it accepts the
        # ack or the timeout; a missing commitment means one landed.
        return not dst.has_commitment(op.packet)

    # ==================================================================
    # The guest-side submission pipeline
    # ==================================================================

    def _dispatch_guest_op(self, dst: GuestEnd, op: BatchOp, span) -> None:
        """Route one guest-side packet operation: straight to its own
        bundle in the classic flow, or into the pending batch."""
        if self.config.batch_max_packets <= 1:
            self._submit_single(dst, op, span)
            return
        dst.pending_batch.append((op, span))
        if len(dst.pending_batch) >= self.config.batch_max_packets:
            self._flush_batch(dst)
        elif dst.batch_flush_handle is None:
            dst.batch_flush_handle = self.sim.schedule(
                self.config.batch_flush_seconds, self._flush_batch, dst)

    def _enqueue_bundle(self, launch: Callable[[], None]) -> None:
        self._bundle_queue.append(launch)
        self._pump_bundles()

    def _pump_bundles(self) -> None:
        while self._bundle_queue:
            if not self.breaker.allow():
                # RPC edge is tripped: hold the queue until the probe
                # window opens instead of hammering a dead endpoint.
                self._schedule_pump_retry()
                return
            launch = self._bundle_queue.popleft()
            try:
                launch()
            except HostUnavailableError:
                # Blackout refusal: nothing was broadcast.  Requeue at
                # the front, feed the breaker, and probe again later.
                self._bundle_queue.appendleft(launch)
                self.breaker.record_failure()
                self.sim.trace.count("relay.bundles.blackout_deferred")
                self._schedule_pump_retry()
                return
            self.breaker.record_success()

    def _schedule_pump_retry(self) -> None:
        if self._pump_retry_handle is not None:
            return
        delay = max(self.breaker.retry_after(),
                    self.retry_policy.base_seconds)
        self._pump_retry_handle = self.sim.schedule(delay, self._pump_retry)

    def _pump_retry(self) -> None:
        self._pump_retry_handle = None
        self._pump_bundles()

    def _submit_single(self, dst: GuestEnd, op: BatchOp, span,
                       attempt: int = 1) -> None:
        incarnation = self._incarnation

        def done(result: DeliveryResult) -> None:
            if incarnation != self._incarnation:
                return  # submitted by a crashed incarnation; drop
            self._pump_bundles()
            self._record_op_result(op, result)
            if not result.success:
                self._retry_op(dst, op, span, attempt)
            elif span is not None:
                span.end(transactions=result.transaction_count)

        def launch() -> None:
            submit = {"recv": dst.api.deliver_packet,
                      "ack": dst.api.acknowledge_packet,
                      "timeout": dst.api.timeout_packet}[op.kind]
            args = (op.packet, op.ack) if op.kind == "ack" else (op.packet,)
            submit(*args, op.proof, op.proof_height,
                   tip_lamports=BUNDLE_TIP_LAMPORTS, on_done=done,
                   prelude=dst.updates.prelude((op.proof_height,)))

        self._enqueue_bundle(launch)

    def _retry_op(self, dst: GuestEnd, op: BatchOp, span, attempt: int) -> None:
        """Bounded, idempotent retry of one failed packet operation."""
        if self._op_already_applied(dst, op):
            # A previous attempt (or a rival relayer) landed it: do not
            # resubmit.  Exactly-once delivery held on-chain; we only
            # record the redundancy.
            self.sim.trace.count("relay.redeliveries")
            self.metrics.redeliveries += 1
            if span is not None:
                span.end(outcome="already-applied")
            return
        if not self.retry_policy.allows(attempt):
            self.sim.trace.count("relay.retries.exhausted")
            if span is not None:
                span.end(outcome="abandoned")
            return
        delay = self.retry_policy.delay(attempt, self._retry_rng)
        self.sim.trace.count("relay.retries")
        self.metrics.retries += 1
        self.sim.schedule(delay, self._retry_fire, dst, op, span, attempt + 1,
                          self._incarnation)

    def _retry_fire(self, dst: GuestEnd, op: BatchOp, span, attempt: int,
                    incarnation: int) -> None:
        if incarnation != self._incarnation or self.paused:
            return  # crashed meanwhile; the restart re-reads it
        self._submit_single(dst, op, span, attempt)

    def _record_op_result(self, op: BatchOp, result: DeliveryResult) -> None:
        if op.kind == "recv":
            self.metrics.deliveries.append(result)
            self.ledger.record("delivery", result.total_fee, result.transaction_count)
            self.sim.trace.observe("relay.delivery.fee", result.total_fee)
            self.sim.trace.observe("relay.delivery.txs", result.transaction_count)
            if result.success:
                self.sim.trace.count("relay.packets.to_guest")
                self.metrics.packets_relayed_to_guest += 1
        elif op.kind == "ack":
            self.metrics.acks_returned.append(result)
            self.ledger.record("ack-return", result.total_fee, result.transaction_count)
        else:
            self.ledger.record("timeout", result.total_fee, result.transaction_count)
            if result.success:
                self.sim.trace.count("relay.timeouts.cancelled")
                self.metrics.timeouts_cancelled += 1

    def _flush_batch(self, dst: GuestEnd) -> None:
        if dst.batch_flush_handle is not None:
            dst.batch_flush_handle.cancel()
            dst.batch_flush_handle = None
        if not dst.pending_batch:
            return
        items, dst.pending_batch = dst.pending_batch, []
        for group, batch in self._bundle_sized_groups(dst, items):
            self._submit_batch(dst, group, batch)

    def _bundle_sized_groups(self, dst: GuestEnd,
                             items: list) -> list[tuple[list, Batch]]:
        """Split a flush so each bundle stays schedulable: halve it
        until the payload, as built, fits ``BATCH_MAX_BUNDLE_TXS``
        transactions (one operation goes out whatever it takes)."""
        batch = Batch.of([op for op, _ in items])
        if (len(items) == 1
                or dst.api.batch_transactions(batch) <= BATCH_MAX_BUNDLE_TXS):
            return [(items, batch)]
        half = len(items) // 2
        return (self._bundle_sized_groups(dst, items[:half])
                + self._bundle_sized_groups(dst, items[half:]))

    def _submit_batch(self, dst: GuestEnd, items: list, batch: Batch) -> None:
        ops = batch.ops
        incarnation = self._incarnation

        def done(result: DeliveryResult) -> None:
            if incarnation != self._incarnation:
                return  # submitted by a crashed incarnation; drop
            self._pump_bundles()
            if not result.success:
                # The whole bundle failed (rejected as oversized, starved
                # of block space, or dropped in transit): requeue each op
                # on the bounded per-packet retry path — explicit backoff,
                # idempotency-checked, counted — so no packet is lost and
                # none is double-delivered.
                self.sim.trace.count("relay.batch.fallback")
                self.ledger.record("batch-failed", result.total_fee,
                                   result.transaction_count)
                for op, span in items:
                    self.sim.trace.count("relay.batch.requeued")
                    self._retry_op(dst, op, span, attempt=1)
                return
            recv_count = sum(1 for op in ops if op.kind == "recv")
            # A relayed packet is a receive entry that landed: an entry
            # the contract refused on its own (already received, say)
            # rides a landed bundle without being relayed by it.
            relayed = sum(1 for index, op in enumerate(ops) if op.kind == "recv"
                          and index not in result.failed_entries)
            for op, span in items:
                if span is not None:
                    span.end(transactions=result.transaction_count)
            # Attribute the bundle's fee pro rata across the two flows
            # (the §V-B ledger stays meaningful under batching).
            fee_share = result.total_fee // len(ops)
            if recv_count:
                self.metrics.deliveries.append(result)
                self.ledger.record("delivery", fee_share * recv_count,
                                   result.transaction_count)
                self.sim.trace.observe("relay.delivery.fee", result.total_fee)
                self.sim.trace.observe("relay.delivery.txs", result.transaction_count)
                self.sim.trace.count("relay.packets.to_guest", relayed)
                self.metrics.packets_relayed_to_guest += relayed
            if len(ops) > recv_count:
                self.metrics.acks_returned.append(result)
                self.ledger.record(
                    "ack-return", result.total_fee - fee_share * recv_count, 0,
                )
            self.metrics.timeouts_cancelled += sum(
                1 for op in ops if op.kind == "timeout")

        def launch() -> None:
            trace = self.sim.trace
            trace.count("relay.batches")
            trace.observe("relay.batch.packets", len(ops))
            trace.observe("relay.batch.payload_bytes", len(batch.payload))
            for size in batch.witness_sizes:
                trace.observe("relay.batch.witness_bytes", size)
            dst.api.deliver_batch(
                batch, tip_lamports=BUNDLE_TIP_LAMPORTS, on_done=done,
                prelude=dst.updates.prelude(op.proof_height for op in ops))

        self._enqueue_bundle(launch)

    def _confirm_seal(self, receiver: GuestEnd, packet: Packet) -> None:
        """The sender accepted ``packet``'s ack: seal it on the receiving
        guest (bounded storage, §III-A)."""
        confirm = (packet.destination_port, packet.destination_channel,
                   packet.sequence)
        if self.config.batch_max_packets > 1:
            # Coalesced flow: seal many acks per transaction instead of
            # paying a host transaction per packet.
            receiver.pending_confirms.append(confirm)
            if receiver.confirm_flush_handle is None:
                receiver.confirm_flush_handle = self.sim.schedule(
                    self.config.batch_flush_seconds,
                    self._flush_confirms, receiver)
            return
        self._enqueue_bundle(lambda: receiver.api.confirm_ack(*confirm))

    def _flush_confirms(self, receiver: GuestEnd) -> None:
        receiver.confirm_flush_handle = None
        confirms, receiver.pending_confirms = receiver.pending_confirms, []
        self.sim.trace.observe("relay.confirm_batch.acks", len(confirms))
        receiver.api.confirm_acks(confirms)

    # ==================================================================
    # Crash and restart (docs/CHAOS.md)
    # ==================================================================

    def settled(self) -> bool:
        """Up, the host RPC edge healthy and nothing held back from it —
        what a chaos fault's recovery watcher waits for."""
        return (not self.paused and self.breaker.state == "closed"
                and not self._bundle_queue)

    def crash(self) -> None:
        """Chaos fault: kill the relayer process, losing volatile state.

        Everything not yet handed to a chain is gone: staged batches,
        queued bundles, queued LC work, handshake steps waiting for their
        block, pending timers.  Requests already accepted by an RPC may still
        land, but their callbacks belong to the dead incarnation and are
        dropped.  Until :meth:`restart` the relayer observes nothing.
        """
        self.paused = True
        self._incarnation += 1
        self.metrics.crashes += 1
        self.sim.trace.count("relay.crashes")
        self._bundle_queue.clear()
        if self._pump_retry_handle is not None:
            self._pump_retry_handle.cancel()
            self._pump_retry_handle = None
        for end in (self.a, self.b):
            end.reset()
            end.updates.reset()

    def restart(self) -> None:
        """Recover from a :meth:`crash`: run the intake over every height
        of either end that may still owe something (:meth:`_floor`) up
        to its latest final one — what the chains still owe, read from
        them alone, through the same path as live blocks.

        A datagram that landed meanwhile anyway (a dead incarnation's,
        a rival relayer's) is refused on-chain, so over-recovery is safe
        — only an omission would be a liveness bug."""
        self.sim.trace.count("relay.restarts")
        self.paused = False
        recovered = sum(self._relay_block(src, height) for src in (self.a, self.b)
                        for height in range(self._floor(src), src.latest_final() + 1))
        if recovered:
            self.sim.trace.count("relay.recovered", recovered)
        for end in (self.a, self.b):
            end.updates.kick()

    def _floor(self, src) -> int:
        """The lowest height of ``src`` that may owe its peer anything,
        read from what both chains hold open: ``src``'s sends still
        committed; the acks it wrote, or the first block past the
        deadline, of the peer's; the acks it accepted that the peer
        has not confirmed; an epoch end the peer's client has not
        seen."""
        dst = self._peer(src)
        heights = [write.height for write in src.ibc.standing.values()]
        for _, packet, _, _ in dst.ibc.standing.values():
            ack = src.ibc.written.get(
                ("ack", packet.destination_channel, packet.sequence))
            if ack is not None:
                heights.append(ack.height)
            elif packet.timeout_timestamp:
                heights.append(src.first_past(packet.timeout_timestamp))
        for _, packet, _, _ in dst.ibc.unconfirmed_acks():
            acked = src.ibc.written.get(
                ("acked", packet.source_channel, packet.sequence))
            if acked is not None:
                heights.append(acked.height)
        if src in self._guests:
            heights.append(dst.client.latest_height() + 1)
        return min(heights, default=src.latest_final() + 1)

    def _watchdog(self) -> None:
        """Liveness backstop: re-kick work an error path or crash left
        wedged — queued LC waiters with no update running and no retry
        timer armed, or bundles sitting in the queue with no pump
        scheduled (e.g. after a breaker probe window elapsed)."""
        self.sim.schedule(WATCHDOG_SECONDS, self._watchdog)
        if self.paused:
            return
        for end in (self.a, self.b):
            end.updates.kick()
        if self._bundle_queue and self._pump_retry_handle is None:
            self.sim.trace.count("relay.watchdog.pump_kicks")
            self._pump_bundles()

    # ==================================================================
    # Handshakes (ICS-03 + ICS-04; repro.relayer.handshake)
    # ==================================================================

    def _on_handshake_step(self, event: HostEvent) -> None:
        end = self._guest_for(event)
        if end is None or end.handshake_waiter is None:
            return
        kind, then = end.handshake_waiter
        payload = event.payload
        # Several relayers may be shaking hands on one guest: a step is
        # consumed only by the relayer whose own datagram produced it.
        if payload.get("kind") != kind or payload.get("payer") != end.api.payer:
            return
        end.handshake_waiter = None
        then(payload.get("created"), payload["height_hint"])

    def _submit_handshake(self, end, msg, then: Callable[[Optional[str], int], None],
                          failed: Callable[[object], None]) -> None:
        """Submit a handshake datagram on ``end``; ``then(created,
        height)`` once it executed, ``height`` naming the block that
        commits it, ``failed(cause)`` if it was rejected."""
        try:
            end.submit_handshake(msg, then, failed)
        except HostUnavailableError:
            self.sim.trace.count("relay.handshakes.deferred")
            self.sim.schedule(
                self.retry_policy.delay(1, self._retry_rng),
                self._submit_handshake, end, msg, then, failed)

    def _await_commit(self, src, height: int, action: Callable[[int], None]) -> None:
        """Run ``action(height)`` once the block of ``src`` at ``height``
        is one its peer's client covers.

        A counterparty height is provable at once; a guest's once that
        block is finalised.  If it is, its header is pushed right away
        (it may never have been relayed — empty blocks are skipped by
        Alg. 2); otherwise, or while the relayer is down, ``action``
        joins ``src.waiters``, which :meth:`_relay_block` runs behind
        that block's one cover, live or in :meth:`restart`'s replay.
        A header push or a sibling adoption is not awaited: the datagram
        ``action`` submits rides behind it (the adoption as its
        prelude), and if a header is refused the datagram's own refusal
        brings the step back (``Handshake._failed``).
        """
        if src in self._guests and (self.paused or height > src.latest_final()):
            src.waiters.append((height, action))
        else:
            self._peer(src).updates.cover(height, action)

    def open_connection(self, on_open: Callable[[ConnectionId, ConnectionId], None],
                        initiator=None) -> None:
        """Run the full ICS-03 handshake, initiated by ``initiator``
        (default: end ``a``).  ``on_open`` receives the connection ids
        on ``a`` and on ``b``."""
        first = initiator or self.a
        second = self._peer(first)
        dance = Handshake(
            self, CONNECTION, Side(first), Side(second),
            lambda: on_open(self.a.connection_id, self.b.connection_id))
        first.updates.prime(lambda: second.updates.prime(dance.start))

    def open_channel(self, a_port: PortId, b_port: PortId,
                     on_open: Callable[[ChannelId, ChannelId], None],
                     order: ChannelOrder = ChannelOrder.UNORDERED) -> None:
        """Run the full ICS-04 channel handshake over the open
        connection, initiated by end ``a``.  ``on_open`` receives the
        channel ids on ``a`` and on ``b``."""
        if self.a.connection_id is None or self.b.connection_id is None:
            raise ReproError("open_connection must complete before open_channel")
        on_a, on_b = Side(self.a, a_port), Side(self.b, b_port)
        Handshake(self, CHANNEL, on_a, on_b,
                  lambda: on_open(on_a.ident, on_b.ident), order).start()
