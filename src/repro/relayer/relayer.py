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
Every one-shot write to a guest — a packet datagram's bundle, a
confirm-seal transaction, a handshake step, a sibling prime — goes
through one door, the bundle queue behind the circuit breaker
(docs/CHAOS.md), so every such write is blackout-safe the same way and
a crash drops whatever has not gone out.  The one stream outside it is
the chunked light-client update (:class:`~repro.guest.api.LcUpload`),
whose receipts drive a windowed stream with its own cursor.  The
relayer keeps nothing a crash must restore.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.errors import HostUnavailableError, ReproError, UnknownBlockError
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
#: Cap on the CONFIRM_ACK instructions of one confirm-seal transaction.
CONFIRMS_PER_TX = 24


@dataclass
class RelayerConfig:
    """Relayer tunables (docs/WORKLOAD.md)."""

    #: Maximum packet operations coalesced into one delivery bundle.
    #: 1 (the default) flushes each operation at once, as the classic
    #: one-bundle-per-packet flow of §V-A; higher values let pending
    #: receive, ack and timeout work accumulate into BATCH_EXEC bundles.
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
        #: The handshakes this relayer has under way: the proof height of
        #: a step in flight is read by it alone (:attr:`Handshake.holding`).
        self._dances: list[Handshake] = []
        for end in (a, b):
            end.updates = updates_for(self, end, self._peer(end))
            # A chain's history is kept from what its relayers can still
            # reach; a new one starts where the chain keeps it.
            end.floor = end.ibc.kept_from + 1
            end.ibc.readers.append(partial(self._floor, end))

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

        host.subscribe("FinalisedBlock", self._on_finalised_block)
        host.subscribe("HandshakeStep", self._on_handshake_step)
        for end in self._counterparties:
            end.chain.on_block(partial(self._on_counterparty_block, end))

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
        # The one wake-up of an update waiting for a height past the
        # tip, down or not: a cover queued during an outage waits too.
        self._peer(src).updates.kick()

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
            if not self._due(src, dst, kind, packet):
                continue
            if kind == "acked":
                # Behind the block's first covered datagram if one came
                # before it, as the chain executed them.
                confirms.append((bool(owed), packet))
            else:
                owed.append(("recv" if kind == "send" else kind, packet, ack))
        owed += [("timeout", packet, None) for packet in self._expiring(
            src, dst, height) if self._due(src, dst, "timeout", packet)]
        ready = src.take_waiters(height) if src in self._guests else ()
        epoch_change = (src in self._guests
                        and src.contract.block_at(height).header.last_in_epoch
                        and height > dst.client.latest_height())

        for late, packet in confirms:
            if not late:
                self._confirm_seal(dst, packet)
        # Alg. 2 line 5: a block that owes nothing proven stays local.
        if owed or ready or epoch_change:
            # A cover that runs the relay at once has it trust the reads
            # above; one that queues it has it read the chains again
            # when it releases it.
            dst.updates.cover(height, partial(
                self._relay_owed, src, dst, owed, ready,
                not dst.updates.covers(height)))
        for late, packet in confirms:
            if late:
                self._confirm_seal(dst, packet)
        return len(owed) + len(confirms)

    def _relay_owed(self, src, dst, owed: list, ready, deferred: bool,
                    covered: int) -> None:
        """A block's one cover ran: prove what it owes at ``covered``
        and hand it to ``dst``, then run the handshake steps behind it.
        A ``deferred`` relay skips what settled while it waited."""
        for kind, packet, ack in owed:
            if deferred and not self._owes(src, dst, kind, packet):
                continue  # settled while the cover was awaited
            try:
                proof = self._prove(src, kind, packet, covered)
            except UnknownBlockError:
                raise  # below the floor: the chain kept too little
            except ReproError:
                continue  # settled meanwhile
            self._send(dst, BatchOp(kind=kind, packet=packet, proof=proof,
                                    proof_height=covered, ack=ack))
        for _, action in ready:
            action(covered)

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

    def _due(self, src, dst, kind: str, packet: Packet) -> bool:
        """Does a ``kind`` write of ``src`` — a send, an ack written or
        an ack accepted — or, for ``"timeout"``, a peer send its block
        is the first past the deadline of, still owe ``dst`` a datagram?
        Once it does not, it never will again: a receipt written, a
        commitment cleared and an ack confirmed all stay so."""
        if kind == "send":
            return self._owes(src, dst, "recv", packet)
        if kind == "ack":
            return src.receives(packet) and self._owes(src, dst, "ack", packet)
        if kind == "acked":
            return src.sends(packet) and dst.ibc.awaits_confirm(packet)
        return self._owes(src, dst, "timeout", packet)

    @staticmethod
    def _expiring(src, dst, height: int) -> list[Packet]:
        """``dst``'s sends whose deadline ``src``'s block at ``height``
        is the first past."""
        return dst.ibc.expiring(src.time(height - 1), src.time(height))

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
        if op.kind == "recv":
            # Finalised on the guest -> committed on the counterparty
            # (the tail of the packet's trace tree).
            self.sim.trace.begin("packet.relay", key=op.packet.sequence,
                                 actor="relayer")
        dst.chain.submit(partial(dst.apply, op),
                         on_result=partial(self._counterparty_result, dst, op))

    def _counterparty_result(self, dst, op: BatchOp, result,
                             cp_height: int) -> None:
        kind = op.kind
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
            self.sim.trace.finish("packet.relay", key=op.packet.sequence,
                                  cp_height=cp_height)
            self.sim.trace.count("relay.packets.to_counterparty")
            self.metrics.packets_relayed_to_counterparty += 1
        elif kind == "timeout":
            self.sim.trace.count("relay.timeouts.cancelled")
            self.metrics.timeouts_cancelled += 1

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
        """Stage one guest-side packet operation for the next flush: at
        once when a batch is one operation (the classic §V-A flow),
        else when ``batch_max_packets`` are pending or the flush timer
        fires."""
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

    def _flush_batch(self, dst: GuestEnd) -> None:
        if dst.batch_flush_handle is not None:
            dst.batch_flush_handle.cancel()
            dst.batch_flush_handle = None
        if not dst.pending_batch:
            return
        items, dst.pending_batch = dst.pending_batch, []
        for group, batch in self._bundle_sized_groups(dst, items):
            self._submit(dst, group, batch)

    def _bundle_sized_groups(self, dst: GuestEnd,
                             items: list) -> list[tuple[list, Optional[Batch]]]:
        """Split a flush so each bundle stays schedulable: halve it
        until the payload, as built, fits ``BATCH_MAX_BUNDLE_TXS``
        transactions.  One operation goes out as its own bundle,
        whatever it takes, with no batch built for it."""
        if len(items) == 1:
            return [(items, None)]
        batch = Batch.of([op for op, _ in items])
        if dst.api.batch_transactions(batch) <= BATCH_MAX_BUNDLE_TXS:
            return [(items, batch)]
        half = len(items) // 2
        return (self._bundle_sized_groups(dst, items[:half])
                + self._bundle_sized_groups(dst, items[half:]))

    def _submit(self, dst: GuestEnd, items: list, batch: Optional[Batch],
                attempt: int = 1) -> None:
        """Queue one delivery bundle of ``items`` ((op, span) pairs; a
        ``batch`` is their payload, built when there are two or more)."""
        self._enqueue_bundle(partial(self._launch, dst, items, batch, partial(
            self._delivered, dst, items, attempt, self._incarnation)))

    def _launch(self, dst: GuestEnd, items: list, batch: Optional[Batch],
                done) -> None:
        ops = [op for op, _ in items]
        if batch is not None:
            trace = self.sim.trace
            trace.count("relay.batches")
            trace.observe("relay.batch.packets", len(ops))
            trace.observe("relay.batch.payload_bytes", len(batch.payload))
            for size in batch.witness_sizes:
                trace.observe("relay.batch.witness_bytes", size)
        dst.api.deliver(
            batch or ops, tip_lamports=BUNDLE_TIP_LAMPORTS, on_done=done,
            prelude=dst.updates.prelude(op.proof_height for op in ops))

    def _delivered(self, dst: GuestEnd, items: list, attempt: int,
                   incarnation: int, result: DeliveryResult) -> None:
        """A delivery bundle came back.  It is booked whoever sent it —
        a crashed incarnation's bundle that landed was paid for and
        relayed its packets; only the pump, the retries and the spans
        belong to the live incarnation.  A failed bundle's operations
        retry one by one: bounded, idempotency-checked, counted — no
        packet is lost and none is delivered twice."""
        live = incarnation == self._incarnation
        if live:
            self._pump_bundles()
        self._book([op for op, _ in items], result)
        if not live:
            return  # a dead process continues nothing
        if result.success:
            for _, span in items:
                if span is not None:
                    span.end(transactions=result.transaction_count)
            return
        if len(items) > 1:
            self.sim.trace.count("relay.batch.fallback")
            self.sim.trace.count("relay.batch.requeued", len(items))
        for op, span in items:
            self._retry_op(dst, op, span, attempt)

    def _book(self, ops: list[BatchOp], result: DeliveryResult) -> None:
        """The one accounting rule of a delivery bundle (§V-B ledger,
        docs/OBSERVABILITY.md).  Its fee and transactions split over its
        operations by kind, to the lamport.  A relayed packet is a
        receive entry that landed, a cancelled timeout a timeout entry
        that landed: an entry the contract refused on its own (already
        received, say) rides a landed bundle without being either."""
        kinds = [op.kind for op in ops]
        landed = [op.kind for index, op in enumerate(ops) if result.success
                  and index not in result.failed_entries]
        seen = fee_before = txs_before = 0
        for kind, flow in (("recv", "delivery"), ("ack", "ack-return"),
                           ("timeout", "timeout")):
            if count := kinds.count(kind):
                seen += count
                fee = result.total_fee * seen // len(ops)
                txs = result.transaction_count * seen // len(ops)
                self.ledger.record(flow, fee - fee_before, txs - txs_before)
                fee_before, txs_before = fee, txs
        trace, metrics = self.sim.trace, self.metrics
        if "recv" in kinds:
            metrics.deliveries.append(result)
            trace.observe("relay.delivery.fee", result.total_fee)
            trace.observe("relay.delivery.txs", result.transaction_count)
            if relayed := landed.count("recv"):
                trace.count("relay.packets.to_guest", relayed)
                metrics.packets_relayed_to_guest += relayed
        if "ack" in kinds:
            metrics.acks_returned.append(result)
        if cancelled := landed.count("timeout"):
            trace.count("relay.timeouts.cancelled", cancelled)
            metrics.timeouts_cancelled += cancelled

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
        if (op.kind == "recv" and op.packet.timeout_timestamp
                and dst.time(dst.latest_final()) > op.packet.timeout_timestamp):
            # The destination's clock is past the deadline: it can only
            # refuse the receive.  The cancel is the intake's, from the
            # block first past the deadline.
            self.sim.trace.count("relay.retries.expired")
            if span is not None:
                span.end(outcome="expired")
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
        self._submit(dst, [(op, span)], None, attempt)

    def _confirm_seal(self, receiver: GuestEnd, packet: Packet) -> None:
        """The sender accepted ``packet``'s ack: stage its seal on the
        receiving guest (bounded storage, §III-A) for the next flush —
        at once when a batch is one operation, else when the flush
        timer fires, coalescing many seals per transaction."""
        receiver.pending_confirms.append((
            packet.destination_port, packet.destination_channel,
            packet.sequence))
        if self.config.batch_max_packets == 1:
            self._flush_confirms(receiver)
        elif receiver.confirm_flush_handle is None:
            receiver.confirm_flush_handle = self.sim.schedule(
                self.config.batch_flush_seconds, self._flush_confirms, receiver)

    def _flush_confirms(self, receiver: GuestEnd) -> None:
        """Queue the staged seals, one launch per transaction of at most
        :data:`CONFIRMS_PER_TX`: a blackout mid-flush holds exactly the
        transactions not yet handed over."""
        receiver.confirm_flush_handle = None
        confirms, receiver.pending_confirms = receiver.pending_confirms, []
        self.sim.trace.observe("relay.confirm_batch.acks", len(confirms))
        for start in range(0, len(confirms), CONFIRMS_PER_TX):
            self._enqueue_bundle(partial(
                receiver.api.confirm_acks,
                confirms[start:start + CONFIRMS_PER_TX]))

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

    def _floor(self, src) -> int:
        """The lowest height of ``src`` this relayer may still read: the
        first block that owes the peer a datagram (:meth:`_due`), or a
        guest's first block past the one the peer's client holds (an
        epoch end it has not seen; what a state-syncing joiner verifies
        against), or a handshake step's proof height
        (:attr:`Handshake.holding`); ``latest_final() + 1`` if none.
        :meth:`restart` replays from it, and ``src``'s chain keeps its
        history from it (``IbcHost.forget``).

        Incremental: what owes nothing never owes again, and a new
        obligation lands at or above the floor, so the floor rises past
        each height once.  The block at the floor keeps, in
        ``src.floor_due``, only what may still owe; a call costs O(1)
        plus the heights and entries it passes."""
        dst = self._peer(src)
        top = src.latest_final() + 1
        if src in self._guests:
            top = min(top, dst.client.latest_height() + 1)
        while src.floor < top:
            if src.floor_due is None:
                src.floor_due = deque(
                    [(kind, packet) for kind, packet, _, _
                     in src.ibc.writes.get(src.floor, ())]
                    + [("timeout", packet)
                       for packet in self._expiring(src, dst, src.floor)])
            due = src.floor_due
            while due and not self._due(src, dst, *due[0]):
                due.popleft()
            if due:
                break
            src.floor += 1
            src.floor_due = None
        return min([src.floor] + [dance.holding[1] for dance in self._dances
                                  if dance.holding and dance.holding[0] is src])

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
        """Submit a handshake datagram on ``end`` — a guest takes it
        through the bundle queue, a counterparty in its next block;
        ``then(created, height)`` once it executed, ``height`` naming
        the block that commits it, ``failed(cause)`` if it was
        rejected."""
        if end in self._guests:
            self._enqueue_bundle(partial(end.submit_handshake, msg, then, failed))
        else:
            end.submit_handshake(msg, then, failed)

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
        on_a, on_b = Side(self.a), Side(self.b)
        dance = Handshake(
            self, CONNECTION, *((on_a, on_b) if first is self.a else (on_b, on_a)),
            partial(_opened, on_open, on_a, on_b))
        first.updates.prime(partial(second.updates.prime, dance.start))

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
                  partial(_opened, on_open, on_a, on_b), order).start()


def _opened(on_open: Callable, on_a: Side, on_b: Side) -> None:
    """A dance is done: hand ``on_open`` what it created on ends ``a``
    and ``b``."""
    on_open(on_a.ident, on_b.ident)
