"""The IBC relayer (Alg. 2, lower half): one algorithm over two ends.

The relayer is permissionless and untrusted: everything it submits is
proof-checked on-chain, so a faulty relayer can only *delay* packets,
never forge them (§III-C).  It is written once over a pair of
:mod:`~repro.relayer.endpoint` ends — a guest and a counterparty, or
two guests on one host — and moves, in each direction:

* **packets**: a commit observed on the source (a ``FinalisedBlock``
  carrying packets, Alg. 2 lines 4–10, or a counterparty block's sends) is
  proven at a height the destination's client covers and delivered;
* **acknowledgements**: the ack the destination wrote is proven back to
  the source, after which the destination guest seals it (§III-A); a
  guest's ack waits, like a handshake step, in its end's one wait list
  until the block that commits it is finalised;
* **timeouts**, where the destination is a guest: an expired send is
  cancelled with a proof that the receipt is absent at a finalised
  height past the deadline;
* **handshakes**: :meth:`open_connection` / :meth:`open_channel` run the
  ICS-03/04 dances of :mod:`~repro.relayer.handshake`.

How each client is brought to a proof height is the business of the
end's :mod:`~repro.relayer.updates` strategy, behind one call,
``cover``: a header push or a sibling adoption rides in front of the
datagram it proves, and only a chunked Tendermint update is awaited.
Every guest-side submission goes through one pipeline — batch, bundle
queue, circuit breaker, bounded idempotent retry (docs/CHAOS.md) — so
every flow is blackout-safe the same way.  The relayer keeps nothing a
crash must restore: a restart relays what the chains still owe, read
from them alone, through the same one cover per finalised guest block.
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
from repro.ibc.packet import Acknowledgement, Packet
from repro.relayer.endpoint import GuestEnd, packet_key
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
#: Period of the expired-send scan on links that relay timeouts.
TIMEOUT_SCAN_SECONDS = 5.0


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
        host.subscribe("PacketReceived", self._on_packet_received)
        host.subscribe("HandshakeStep", self._on_handshake_step)
        for end in self._counterparties:
            end.chain.on_block(
                lambda _height, src=end: self._on_counterparty_block(src))
        if not self._counterparties:
            # Timeouts are relayed where the destination can prove a
            # receipt absent at a finalised height: between guests.
            sim.schedule(TIMEOUT_SCAN_SECONDS, self._scan_timeouts)

    def _peer(self, end):
        return self.b if end is self.a else self.a

    def _guest_for(self, event: HostEvent) -> Optional[GuestEnd]:
        """The end an event belongs to; None for another guest on the
        same host (multi-guest fabric)."""
        return next((end for end in self._guests if end.observes(event)), None)

    # ==================================================================
    # Intake: what each end committed
    # ==================================================================

    def _on_finalised_block(self, event: HostEvent) -> None:
        src = self._guest_for(event)
        if src is None or self.paused:
            return  # a down relayer is deaf; :meth:`restart` re-reads
        payload = event.payload
        self._relay_block(
            src, payload["height"],
            tuple(p for p in payload["packets"] if src.sends(p)),
            payload["header"].last_in_epoch)

    def _relay_block(self, src: GuestEnd, height: int, packets: tuple,
                     epoch_change: bool) -> None:
        """Relay what ``src``'s finalised block at ``height`` owes its
        peer — ``packets``, the writes waiting for it, an epoch change —
        behind that block's one cover."""
        ready = src.take_waiters(height)
        dst = self._peer(src)
        for packet in packets:
            src.outstanding[packet_key(packet.source_channel, packet.sequence)] = packet

        def relay(covered_height: int) -> None:
            for packet in packets:
                self._deliver(src, dst, packet, covered_height)
            for _, action in ready:
                action(covered_height)

        # Alg. 2 line 5: a block with no packets, due writes or epoch
        # change stays local.
        if packets or ready or epoch_change:
            dst.updates.cover(height, relay)

    def _on_counterparty_block(self, src) -> None:
        """``src``'s chain committed a block: take up the sends past the
        cursor, at the block's own instant.  A down relayer leaves the
        cursor where it is; :meth:`restart` reads what it missed."""
        if not self.paused:
            self._relay_sends(src, src.fresh_sends())

    def _relay_sends(self, src, sends: list[tuple[Packet, int]]) -> None:
        """Deliver counterparty sends, each proven at its own height."""
        dst = self._peer(src)
        for packet, committed_height in sends:
            dst.updates.cover(
                committed_height,
                lambda h, p=packet: self._deliver(src, dst, p, h))

    def _on_packet_received(self, event: HostEvent) -> None:
        """A guest wrote an ack; it returns once the block the event
        names is finalised (inside :meth:`_relay_block`)."""
        receiver = self._guest_for(event)
        packet = event.payload.get("packet")
        ack_bytes = event.payload.get("ack_bytes")
        if receiver is None or packet is None or ack_bytes is None or self.paused:
            return
        if receiver.receives(packet):  # else another link's relayer acks it
            self._ack_written(receiver, packet,
                              Acknowledgement.from_bytes(ack_bytes),
                              event.payload["height_hint"])

    # ==================================================================
    # Packets and acknowledgements, either direction
    # ==================================================================

    def _deliver(self, src, dst, packet: Packet, height: int) -> None:
        """Alg. 2 lines 7–10: prove the commitment, deliver the packet."""
        try:
            proof = src.view(height).prove_seq(
                paths.commitment_prefix(packet.source_port, packet.source_channel),
                packet.sequence)
        except ReproError:
            return  # view pruned or commitment gone (settled meanwhile)
        self._send(dst, BatchOp(kind="recv", packet=packet, proof=proof,
                                proof_height=height))

    def _ack_written(self, receiver, packet: Packet, ack: Acknowledgement,
                     height: int) -> None:
        """``receiver`` holds ``ack`` for ``packet``, committed by its
        block at ``height``: haul it home once that block is provable."""
        origin = self._peer(receiver)
        self._await_commit(
            receiver, height,
            lambda h: self._send(origin, self._ack_op(receiver, packet, ack, h)))

    @staticmethod
    def _ack_op(receiver, packet: Packet, ack: Acknowledgement,
                height: int) -> BatchOp:
        """Prove the ack ``receiver`` wrote, as a datagram for the sender."""
        proof = receiver.view(height).prove_seq(
            paths.ack_prefix(packet.destination_port, packet.destination_channel),
            packet.sequence)
        return BatchOp(kind="ack", packet=packet, proof=proof,
                       proof_height=height, ack=ack)

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
        packet = op.packet
        if op.kind == "recv":
            # Finalised on the guest -> committed on the counterparty
            # (the tail of the packet's trace tree).
            self.sim.trace.begin("packet.relay", key=packet.sequence, actor="relayer")

            def after_recv(result, cp_height: int) -> None:
                if isinstance(result, ReproError):
                    # A receipt already there is a double delivery (a
                    # competing relayer, a replay after a restart);
                    # anything else is the chain refusing the datagram,
                    # e.g. behind a header push it refused.
                    self.sim.trace.count(
                        "relay.duplicate_deliveries" if dst.has_receipt(packet)
                        else "relay.deliveries.refused")
                    return
                self.sim.trace.finish("packet.relay", key=packet.sequence,
                                      cp_height=cp_height)
                self.sim.trace.count("relay.packets.to_counterparty")
                self.metrics.packets_relayed_to_counterparty += 1
                # The counterparty wrote its ack in this block; bring it home.
                self._ack_written(dst, packet, result, dst.height)

            dst.chain.submit(
                lambda: dst.ibc.recv_packet(packet, op.proof, op.proof_height,
                                            local_time=self.sim.now),
                on_result=after_recv)
            return

        def after_ack(result, cp_height: int,
                      incarnation=self._incarnation) -> None:
            if incarnation != self._incarnation:
                return  # submitted by a crashed incarnation; drop
            if isinstance(result, ReproError):
                # A commitment already gone means the ack landed before
                # (a replay after a restart, a competing relayer).
                self.sim.trace.count(
                    "relay.duplicate_acks" if not dst.has_commitment(packet)
                    else "relay.acks.refused")
                return
            self._op_applied(dst, op)

        dst.chain.submit(
            lambda: dst.ibc.acknowledge_packet(
                packet, op.ack, op.proof, op.proof_height),
            on_result=after_ack)

    def _op_already_applied(self, dst: GuestEnd, op: BatchOp) -> bool:
        """Idempotency check before a resubmission: did an earlier
        attempt — ours pre-crash, or a rival relayer's — already land
        this operation on ``dst``?"""
        if op.kind == "recv":
            return dst.has_receipt(op.packet)
        # The sender clears the packet commitment when it accepts the
        # ack or the timeout; a missing commitment means one landed.
        return not dst.has_commitment(op.packet)

    def _op_applied(self, dst, op: BatchOp) -> None:
        """``op`` is on ``dst``'s chain, by this attempt or an earlier
        one: settle what the relayer tracks about the packet."""
        if op.kind == "recv":
            return
        peer = self._peer(dst)
        if dst in self._guests:
            dst.outstanding.pop(
                packet_key(op.packet.source_channel, op.packet.sequence), None)
        if op.kind == "ack" and peer in self._guests:
            # The sender processed the ack; seal it on the receiving
            # guest (bounded storage, §III-A).
            self._confirm_seal(peer, (
                op.packet.destination_port, op.packet.destination_channel,
                op.packet.sequence))

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
            if result.success:
                if span is not None:
                    span.end(transactions=result.transaction_count)
                self._op_applied(dst, op)
                return
            self._retry_op(dst, op, span, attempt)

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
            self._op_applied(dst, op)
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
                self._op_applied(dst, op)
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

    def _confirm_seal(self, receiver: GuestEnd, confirm: tuple[str, str, int]) -> None:
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
    # Timeout cancellation (guest destinations)
    # ==================================================================

    def _scan_timeouts(self) -> None:
        self.sim.schedule(TIMEOUT_SCAN_SECONDS, self._scan_timeouts)
        if self.paused:
            return
        for origin in self._guests:
            dst = self._peer(origin)
            for key, packet in list(origin.outstanding.items()):
                if packet.timeout_timestamp and self._try_timeout(origin, dst, packet):
                    del origin.outstanding[key]

    def _try_timeout(self, origin: GuestEnd, dst: GuestEnd, packet: Packet) -> bool:
        """Cancel one expired send; True removes it from the outstanding
        set (cancelled, or already settled by the other path)."""
        if dst.has_receipt(packet):
            return False  # the ack path settles it
        if not origin.has_commitment(packet):
            return True  # already acked or timed out on-chain
        height = dst.expired_height(packet.timeout_timestamp)
        if height is None:
            return False  # destination clock not past the deadline yet
        try:
            proof = dst.view(height).prove_seq_absence(
                paths.receipt_prefix(packet.destination_port,
                                     packet.destination_channel),
                packet.sequence)
        except ReproError:
            return False  # view unavailable; retry next scan
        self._send(origin, BatchOp(kind="timeout", packet=packet, proof=proof,
                                   proof_height=height))
        return True

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
        queued bundles, queued LC work, writes waiting for their block,
        pending timers.  Requests already accepted by an RPC may still
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

    def _owed(self, src, dst, packet: Packet) -> bool:
        """Is ``packet``, sent by ``src`` on this link, still committed
        there and not yet received by ``dst``?"""
        return (src.sends(packet) and src.has_commitment(packet)
                and not dst.has_receipt(packet))

    def restart(self) -> None:
        """Recover from a :meth:`crash`: relay what the chains still owe,
        read from the chains alone.

        1. Every ack an end wrote whose packet is still committed on the
           sender lost its way home: haul it again (a guest's waits for
           its block below).
        2. Each finalised guest block is relayed like a live one — one
           cover, for its sends still owed, the acks it commits and an
           epoch change the peer's client has not seen.
        3. Counterparty sends the cursor passed that are still owed are
           delivered again; then the sends made while down are read.

        A datagram that landed meanwhile anyway (a dead incarnation's,
        a rival relayer's) is refused on-chain, so over-recovery is safe
        — only an omission would be a liveness bug."""
        self.sim.trace.count("relay.restarts")
        recovered = 0
        for receiver in (self.a, self.b):
            origin = self._peer(receiver)
            for packet, ack in receiver.ibc.written_acks.values():
                if receiver.receives(packet) and origin.has_commitment(packet):
                    self._ack_written(receiver, packet, ack,
                                      receiver.ack_height(packet))
                    recovered += 1
        for src in self._guests:
            dst = self._peer(src)
            known = dst.client.latest_height()
            for block in src.contract.blocks:
                if not block.finalised:
                    continue
                packets = tuple(
                    packet for packet in src.contract.packets_in_block(block.height)
                    if self._owed(src, dst, packet))
                recovered += len(packets)
                self._relay_block(
                    src, block.height, packets,
                    block.header.last_in_epoch and block.height > known)
        self.paused = False
        for src in self._counterparties:
            dst = self._peer(src)
            owed = [(packet, height) for packet, height in src.read_sends()
                    if self._owed(src, dst, packet)]
            recovered += len(owed)
            self._relay_sends(src, owed)
            self._on_counterparty_block(src)
        if recovered:
            self.sim.trace.count("relay.recovered", recovered)
        for end in (self.a, self.b):
            end.updates.kick()

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
        joins ``src.waiters``, a guest end's one wait list (handshake
        steps and acks alike), which :meth:`_relay_block` runs behind
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
