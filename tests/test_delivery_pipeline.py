"""One guest delivery pipeline — a differential against the two-path
relayer.

The relayer used to hand a guest its receives, acks and timeouts down
two forks chosen by ``RelayerConfig.batch_max_packets``: a bundle per
packet (``GuestApi.deliver_packet`` / ``acknowledge_packet`` /
``timeout_packet``, its own launch, completion and accounting) or a
batch (``deliver_batch``, another launch, completion and accounting).
Now every packet datagram is staged the same way, flushed at
``batch_max_packets`` (at once when it is 1) or on the flush timer, and
each bundle-sized group goes out through one ``GuestApi.deliver``,
whose op count picks the wire form: one operation is §V-A's staged
``RECV_EXEC`` / ``ACK_EXEC`` / ``TIMEOUT_EXEC`` bundle of its own proof,
two or more a ``BATCH_EXEC``.  Failed bundles and retries re-enter as
groups of one.

``TwoPathRelayer`` keeps the two forks, here alone.  Over hypothesis
plans — classic and batched flows, guest↔counterparty and guest↔guest
links (the latter behind the ``SIBLING_UPDATE`` prelude), RPC
blackouts, dropped transactions (failed bundles retried) and a relayer
crash with bundles in flight — the two must hand the host the same
bytes in every bundle and end with the same events, roots and packet
counters, wherever the twin built no batched group of one.  A batched
group of one is the one thing that differs: the twin shipped it as a
one-entry ``BATCH_EXEC``, the pipeline as the one operation's own
bundle.  Sparse plans force such groups; there both must reach the same
final IBC state, every packet received, acknowledged or timed out
exactly once.
"""

from functools import partial
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.deployment
import repro.fabric.deployment
from repro import ids
from repro.chaos import ChaosInjector, FaultPlan
from repro.checkpoint.snapshot import world_roots
from repro.errors import HostUnavailableError
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, TopologyConfig, build_fabric,
)
from repro.guest.api import Batch
from repro.guest.config import GuestConfig
from repro.ibc.identifiers import ChannelId, PortId
from repro.relayer.relayer import (
    BATCH_MAX_BUNDLE_TXS, BUNDLE_TIP_LAMPORTS, Relayer, RelayerConfig,
)
from tests.helpers import BlockRecorder

PORT = PortId("transfer")


class TwoPathRelayer(Relayer):
    """The relayer as it was: a classic flow that submits each guest
    operation as its own bundle, and a batched flow that builds a
    ``Batch`` for every flushed group — a group of one included — each
    with its own launch, completion and accounting.  It counts the
    batched groups of one it builds."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.groups_of_one = 0

    def _dispatch_guest_op(self, dst, op, span) -> None:
        if self.config.batch_max_packets <= 1:
            self._submit_single(dst, op, span)
            return
        dst.pending_batch.append((op, span))
        if len(dst.pending_batch) >= self.config.batch_max_packets:
            self._flush_batch(dst)
        elif dst.batch_flush_handle is None:
            dst.batch_flush_handle = self.sim.schedule(
                self.config.batch_flush_seconds, self._flush_batch, dst)

    def _submit_single(self, dst, op, span, attempt: int = 1) -> None:
        self._enqueue_bundle(partial(self._launch_single, dst, op, partial(
            self._single_done, dst, op, span, attempt, self._incarnation)))

    @staticmethod
    def _launch_single(dst, op, done) -> None:
        dst.api.deliver([op], tip_lamports=BUNDLE_TIP_LAMPORTS, on_done=done,
                        prelude=dst.updates.prelude((op.proof_height,)))

    def _single_done(self, dst, op, span, attempt, incarnation, result) -> None:
        if incarnation != self._incarnation:
            return
        self._pump_bundles()
        self._record_op_result(op, result)
        if not result.success:
            self._retry_op(dst, op, span, attempt)
        elif span is not None:
            span.end(transactions=result.transaction_count)

    def _retry_fire(self, dst, op, span, attempt, incarnation) -> None:
        if incarnation != self._incarnation or self.paused:
            return
        self._submit_single(dst, op, span, attempt)

    def _record_op_result(self, op, result) -> None:
        if op.kind == "recv":
            self.metrics.deliveries.append(result)
            self.ledger.record("delivery", result.total_fee, result.transaction_count)
            if result.success:
                self.metrics.packets_relayed_to_guest += 1
        elif op.kind == "ack":
            self.metrics.acks_returned.append(result)
            self.ledger.record("ack-return", result.total_fee, result.transaction_count)
        else:
            self.ledger.record("timeout", result.total_fee, result.transaction_count)
            if result.success:
                self.metrics.timeouts_cancelled += 1

    def _flush_batch(self, dst) -> None:
        if dst.batch_flush_handle is not None:
            dst.batch_flush_handle.cancel()
            dst.batch_flush_handle = None
        if not dst.pending_batch:
            return
        items, dst.pending_batch = dst.pending_batch, []
        for group, batch in self._bundle_sized_groups(dst, items):
            self._submit_batch(dst, group, batch)

    def _bundle_sized_groups(self, dst, items: list) -> list:
        batch = Batch.of([op for op, _ in items])
        if (len(items) == 1
                or dst.api.batch_transactions(batch) <= BATCH_MAX_BUNDLE_TXS):
            self.groups_of_one += len(items) == 1
            return [(items, batch)]
        half = len(items) // 2
        return (self._bundle_sized_groups(dst, items[:half])
                + self._bundle_sized_groups(dst, items[half:]))

    def _submit_batch(self, dst, items, batch) -> None:
        self._enqueue_bundle(partial(self._launch_batch, dst, batch, partial(
            self._batch_done, dst, items, batch, self._incarnation)))

    @staticmethod
    def _launch_batch(dst, batch, done) -> None:
        dst.api.deliver(batch, tip_lamports=BUNDLE_TIP_LAMPORTS, on_done=done,
                        prelude=dst.updates.prelude(
                            op.proof_height for op in batch.ops))

    def _batch_done(self, dst, items, batch, incarnation, result) -> None:
        if incarnation != self._incarnation:
            return
        self._pump_bundles()
        if not result.success:
            self.ledger.record("batch-failed", result.total_fee,
                               result.transaction_count)
            for op, span in items:
                self._retry_op(dst, op, span, attempt=1)
            return
        for _, span in items:
            if span is not None:
                span.end(transactions=result.transaction_count)
        self.metrics.deliveries.append(result)


class Run:
    """``g0`` linked to ``g1`` — a second guest on the host or an
    IBC-native counterparty — under ``plan``: ``rounds`` bursts of
    ``burst`` transfers each way, ``gap`` seconds apart (if
    ``expiring``, every third with a 20 s deadline), then drained."""

    def __init__(self, relayer_class, kind: str, seed: int, plan: FaultPlan,
                 batch: int, rounds: int, burst: int, gap: float,
                 expiring: bool) -> None:
        # Idle guests cut a block every 90 s: a timeout needs a block
        # of the receiver past the deadline.
        config = GuestConfig(delta_seconds=90.0, min_stake_lamports=1)
        guests = tuple(GuestSpec(name, config) for name in (
            ("g0", "g1") if kind == "guest-guest" else ("g0",)))
        cps = () if kind == "guest-guest" else (CounterpartySpec("g1"),)
        with patch.object(repro.deployment, "Relayer", relayer_class), \
                patch.object(repro.fabric.deployment, "Relayer", relayer_class):
            dep = self.dep = build_fabric(TopologyConfig(
                guests=guests, counterparties=cps,
                links=(LinkSpec("g0", "g1"),), seed=seed,
                relayer=RelayerConfig(batch_max_packets=batch,
                                      batch_flush_seconds=1.0)))
        self.expiring = expiring
        self.recorder = BlockRecorder(dep.host)
        self.relayer = dep.links[0].relayer
        assert type(self.relayer) is relayer_class
        self.channels = {name: ChannelId(chan)
                         for name, chan in dep.links[0].channels.items()}
        for name in ("g0", "g1"):
            self.chain(name).bank.mint(self.sender(name), f"stone-{name}", 10_000)
        #: Every delivery bundle handed to the host: each transaction's
        #: payer and instruction bytes.
        self.bundles = []
        submit_bundle = dep.host.submit_bundle

        def tap(transactions, tip_lamports, on_result=None):
            submit_bundle(transactions, tip_lamports, on_result=on_result)
            self.bundles.append(tuple(
                (tx.payer, tuple(ins.data for ins in tx.instructions))
                for tx in transactions))

        dep.host.submit_bundle = tap
        ChaosInjector(dep, plan).arm()
        for index in range(rounds * burst):
            deadline = dep.sim.now + 20.0 if expiring and index % 3 == 0 else 0.0
            for name in ("g0", "g1"):
                self.send(name, 1 + index % 5, deadline)
            if index % burst == burst - 1:
                dep.run_for(gap)
        dep.run_for(900.0 + plan.horizon())

    def chain(self, name: str):
        dep = self.dep
        if name in dep.counterparties:
            return dep.counterparties[name]
        return dep.guests[name].contract

    def sender(self, name: str) -> str:
        if name in self.dep.counterparties:
            return f"{name}-user"
        return str(self.dep.user[name])

    def send(self, name: str, amount: int, deadline: float) -> None:
        """One transfer from ``name``.  A guest send the host refuses (a
        blackout) or drops is refunded — ``make_payload`` escrowed it —
        and sent again a second later while its deadline stands."""
        chain, channel = self.chain(name), self.channels[name]
        payload = chain.transfer.make_payload(
            channel, f"stone-{name}", amount, self.sender(name), f"{name}-hodler")
        if name in self.dep.counterparties:
            chain.submit(lambda: chain.ibc.send_packet(
                PORT, channel, payload, deadline))
            return
        sent = partial(self._sent, name, amount, deadline)
        try:
            self.dep.user_api[name].send_packet(
                str(PORT), str(channel), payload, deadline, on_result=sent)
        except HostUnavailableError:
            sent(None)

    def _sent(self, name: str, amount: int, deadline: float, receipt) -> None:
        if receipt is not None and receipt.success:
            return
        chain, channel = self.chain(name), self.channels[name]
        chain.bank.transfer(chain.transfer.escrow_address(channel),
                            self.sender(name), f"stone-{name}", amount)
        if not deadline or self.dep.sim.now + 1.0 < deadline:
            self.dep.sim.schedule(1.0, self.send, name, amount, deadline)

    def ibc_state(self) -> dict:
        """What the packets did on both chains — sent, received,
        acknowledged, timed out — and the balances that moved.  (How
        many duplicate deliveries a chain refused is how the attempts
        raced, not where the packets ended.)"""
        out = {}
        for name in ("g0", "g1"):
            peer = "g1" if name == "g0" else "g0"
            chain = self.chain(name)
            counters = chain.ibc.counters
            voucher = f"transfer/{self.channels[name]}/stone-{peer}"
            out[name] = (counters.packets_sent, counters.packets_received,
                         counters.packets_acknowledged, counters.packets_timed_out,
                         chain.bank.balance(self.sender(name), f"stone-{name}"),
                         chain.bank.total_supply(voucher))
        return out

    def assert_settled(self) -> None:
        """Every send acknowledged or timed out, each exactly once."""
        for name in ("g0", "g1"):
            peer = "g1" if name == "g0" else "g0"
            sent, received = self.chain(name).ibc.counters, self.chain(peer).ibc.counters
            assert sent.packets_sent == (
                sent.packets_acknowledged + sent.packets_timed_out), name
            assert received.packets_received == sent.packets_acknowledged, name
            assert not self.chain(name).ibc.standing, name


FAULT_KINDS = ("relayer_crash", "host_blackout", "host_tx_drop")


@st.composite
def plans(draw) -> FaultPlan:
    plan = FaultPlan()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        extra = {}
        if kind == "host_tx_drop":
            extra["probability"] = draw(st.sampled_from((0.2, 0.5)))
        plan.add(kind, at=float(draw(st.integers(0, 60))),
                 duration=float(draw(st.integers(5, 30))), **extra)
    return plan


def differential(*args) -> TwoPathRelayer:
    """Run ``Run(cls, *args)`` for the twin, then for the relayer from
    the same id mints, and compare."""
    states = ids.mint_states()
    twin = Run(TwoPathRelayer, *args)
    ids.rewind_mints(states)
    one = Run(Relayer, *args)
    for run in (twin, one):
        run.assert_settled()
    if not twin.relayer.groups_of_one:
        assert one.bundles == twin.bundles
        assert world_roots(one.dep) == world_roots(twin.dep)
        for name in ("g0", "g1"):
            assert one.chain(name).ibc.counters == twin.chain(name).ibc.counters
        assert one.dep.sim.dispatched_events() == twin.dep.sim.dispatched_events()
    elif not one.expiring:
        # A group of one lands at another time in its other wire form:
        # which send beats its deadline may differ, nothing else may.
        assert one.ibc_state() == twin.ibc_state()
    return twin.relayer


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(("guest-cp", "guest-guest")),
       seed=st.integers(0, 10_000), plan=plans(),
       batch=st.sampled_from((1, 4, 8)), rounds=st.integers(1, 3),
       burst=st.sampled_from((1, 4)), gap=st.sampled_from((3.0, 30.0)),
       expiring=st.booleans())
# A batched guest↔guest link whose relayer crashes with bundles in
# flight, and a sparse batched link that flushes groups of one.
@example(kind="guest-guest", seed=5,
         plan=FaultPlan().add("relayer_crash", at=12.0, duration=20.0),
         batch=4, rounds=2, burst=4, gap=3.0, expiring=True)
@example(kind="guest-cp", seed=5, plan=FaultPlan(), batch=8, rounds=3,
         burst=1, gap=30.0, expiring=False)
def test_one_pipeline_ships_what_the_two_paths_shipped(
        kind, seed, plan, batch, rounds, burst, gap, expiring):
    differential(kind, seed, plan, batch, rounds, burst, gap, expiring)


def test_a_sparse_batched_link_forces_groups_of_one():
    """The precondition of the second half: a batched link fed one
    transfer per flush builds groups of one in the twin."""
    twin = differential("guest-guest", 7, FaultPlan(), 8, 2, 1, 30.0, False)
    assert twin.groups_of_one > 0


class ExpiryWatch(Relayer):
    """The relayer, noting each failed receive it was asked to retry
    whose deadline its destination's latest final block had passed, and
    whether it scheduled a retry for it anyway."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.expired, self.expired_retried = 0, 0

    def _retry_op(self, dst, op, span, attempt: int) -> None:
        expired = (op.kind == "recv" and op.packet.timeout_timestamp
                   and dst.time(dst.latest_final()) > op.packet.timeout_timestamp)
        retries = self.metrics.retries
        super()._retry_op(dst, op, span, attempt)
        self.expired += bool(expired)
        self.expired_retried += bool(expired) and self.metrics.retries > retries


def test_an_expired_receive_is_not_retried():
    """A guest↔guest link delivering each datagram as its own bundle,
    its relayer down for 20 s and half the host's transactions dropped,
    every third send with a 20 s deadline.  A receive whose bundle
    failed after its destination's clock passed the deadline can only be
    refused again: it is not resubmitted, and the timeout path cancels
    it.  (Measured when the rule came in: the relayer before it made 46
    retries and 56 failed delivery bundles here, 28 of the retries for
    expired receives; with it, 18 and 28.)"""
    plan = (FaultPlan().add("relayer_crash", at=53.0, duration=20.0)
            .add("host_tx_drop", at=0.0, duration=30.0, probability=0.5))
    run = Run(ExpiryWatch, "guest-guest", 8724, plan, 1, 3, 4, 3.0, True)
    run.assert_settled()
    relayer = run.relayer
    assert relayer.expired > 0               # the precondition
    assert relayer.expired_retried == 0
    assert sum(run.chain(name).ibc.counters.packets_timed_out
               for name in ("g0", "g1")) > 0
