"""Relayer recovery: crash/restart, and the bounded retry path.

A relayer has one outage, `Relayer.crash`, and one way back,
`Relayer.restart`, which relays what the chains still owe, read from
them alone.  A restart must be safe whatever the relayer was doing when
it went down — including while an LC hold-down retry timer is pending
(the docs/CHAOS.md hardening): the re-kick is guarded, so no duplicate
timer is armed and no queued packet is lost.  It must keep delivery
exactly-once in both directions — nothing that landed while it was down
is delivered again — and give each finalised guest block one cover; a
failed BATCH_EXEC bundle must requeue its members through the bounded
retry path.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.fabric.conservation import ConservationChecker
from repro.guest import instructions as ins
from repro.guest.api import BatchOp
from repro.guest.config import GuestConfig
from repro.relayer.relayer import RelayerConfig
from repro.validators.profiles import simple_profiles

from tests.helpers import can_cut_a_block


def make_dep(seed, relayer_config=None):
    return Deployment(DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=90.0, min_stake_lamports=1),
        relayer=relayer_config or RelayerConfig(),
        profiles=simple_profiles(4),
        tracing=True,
    ))


def cp_send(dep, cp_chan, amount=50, sender="carol", receiver="dave"):
    def send():
        data = dep.counterparty.transfer.make_payload(
            cp_chan, "PICA", amount, sender, receiver)
        dep.counterparty.ibc.send_packet(
            dep.counterparty.transfer_port, cp_chan, data, 0.0)

    dep.counterparty.submit(send)


def cover_census(updates):
    """Record the height of every cover ``updates`` makes from now on."""
    covered, cover = [], updates.cover

    def counted(height, then):
        covered.append(height)
        cover(height, then)

    updates.cover = counted
    return covered


def held_down(dep, cp_chan):
    """A counterparty send committed while the relayer was down, whose
    LC update the budget holds back for two more minutes; returns the
    strategy with its one hold-down timer armed."""
    dep.relayer.crash()
    cp_send(dep, cp_chan)
    dep.run_for(30.0)                 # the send commits; relayer down
    updates = dep.relayer.a.updates
    # Make "the last update is not paid for yet" unambiguous so the
    # kick below must take the hold-down branch.
    updates._lc_next_start = dep.sim.now + 120.0
    assert updates._lc_holddown_handle is None

    dep.relayer.restart()
    dep.run_for(10.0)                 # restart reads the send, kicks LC
    assert updates._lc_holddown_handle is not None  # timer pending
    return updates


class TestResume:
    def test_resume_with_pending_holddown_arms_no_duplicate_timer(self):
        dep = make_dep(271)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        updates = held_down(dep, cp_chan)
        handle = updates._lc_holddown_handle

        # Kicked again with the timer pending (the watchdog's kick).
        scheduled = dep.trace_report().counter("sim.events.scheduled")
        updates.kick()
        updates.kick()
        assert updates._lc_holddown_handle is handle  # not replaced
        assert not handle.cancelled
        assert (dep.trace_report().counter("sim.events.scheduled")
                == scheduled)             # and nothing armed beside it
        assert not updates._lc_busy       # held, not started

        dep.run_for(400.0)                # hold-down elapses, update runs
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 50  # not lost
        assert dep.relayer.metrics.packets_relayed_to_guest == 1  # exactly once
        assert updates._lc_holddown_handle is None

    def test_crash_cancels_the_holddown_timer(self):
        dep = make_dep(279)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        updates = held_down(dep, cp_chan)
        handle = updates._lc_holddown_handle
        held_until = updates._lc_next_start

        dep.relayer.crash()               # reset(): queue and timer gone
        assert handle.cancelled
        assert updates._lc_holddown_handle is None
        assert updates._lc_queue == []

        # The restarted relayer re-fetches the send and still owes the
        # budget: its update starts when the hold-down ends, not before.
        dep.relayer.restart()
        dep.run_for(400.0)
        assert dep.relayer.a.updates._lc_started >= held_until
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 50
        assert dep.relayer.metrics.packets_relayed_to_guest == 1

    def test_resume_is_idempotent_when_idle(self):
        """Two outages of an idle link: each restart finds nothing owed
        and the link carries traffic after them."""
        dep = make_dep(272)
        guest_chan, cp_chan = dep.establish_link()
        for _ in range(2):
            dep.relayer.crash()
            dep.run_for(30.0)
            dep.relayer.restart()
        dep.run_for(30.0)
        assert not dep.relayer.paused
        assert dep.trace_report().counters.get("relay.recovered", 0) == 0
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        cp_send(dep, cp_chan)
        dep.run_for(300.0)
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 50

    def test_resume_replays_missed_finalised_blocks(self):
        """A send finalised while the relayer is down: the restart
        replays its block from the chain, behind one cover."""
        dep = make_dep(273)
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 500)

        dep.relayer.crash()
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 100, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(300.0)                # finalised while the relayer slept
        [height] = [block.height for block in dep.contract.blocks
                    if dep.contract.packets_in_block(block.height)]
        assert height <= dep.relayer.a.latest_final()

        covered = cover_census(dep.relayer.b.updates)
        dep.relayer.restart()
        dep.run_for(240.0)
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 100
        assert covered.count(height) == 1
        assert dep.trace_report().counters.get("relay.duplicate_deliveries", 0) == 0


class TestCrashRestart:
    def test_crash_midflight_keeps_delivery_exactly_once(self):
        dep = make_dep(274)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        for _ in range(5):
            cp_send(dep, cp_chan)
        dep.run_for(45.0)                 # some delivered, some in flight

        dep.relayer.crash()
        assert dep.relayer._bundle_queue == [] or not dep.relayer._bundle_queue
        dep.run_for(30.0)                 # dead: nothing moves

        dep.relayer.restart()
        dep.run_for(900.0)
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 250  # 5 x 50, once
        assert dep.relayer.metrics.crashes == 1
        counters = dep.trace_report().counters
        assert counters.get("relay.restarts") == 1

    def test_crash_midflight_guest_to_cp(self):
        dep = make_dep(275)
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 500)
        for _ in range(3):
            payload = dep.contract.transfer.make_payload(
                guest_chan, "GUEST", 100, "alice", "bob")
            dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(60.0)

        dep.relayer.crash()
        dep.run_for(30.0)
        dep.relayer.restart()
        dep.run_for(900.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 300
        assert dep.contract.ibc.counters.packets_acknowledged == 3

    def test_crash_after_cp_delivery_recovers_the_ack(self):
        """Regression: a guest->cp packet delivered to the counterparty
        just before a crash had its ack-return op wiped with the
        volatile queues — and nothing rescanned for it, so the guest's
        packet commitment never cleared.  `restart` now rescans the
        counterparty's written-ack log for outstanding commitments."""
        dep = make_dep(278)
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 500)
        # Blackout stalls the guest-side ack ops in volatile queues
        # (delivery to the cp does not use the host, so it completes);
        # the crash then destroys them.
        plan = (FaultPlan(label="ack-loss")
                .add("host_blackout", at=10.0, duration=20.0)
                .add("relayer_crash", at=30.0, duration=15.0))
        ChaosInjector(dep, plan).arm()
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 100, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(400.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 100
        assert dep.contract.ibc.counters.packets_acknowledged == 1
        counters = dep.trace_report().counters
        assert counters.get("relay.recovered", 0) >= 1

    def test_ack_written_behind_a_block_cut_in_its_slot_returns_once_after_restart(self):
        """The guest writes an ack in a host slot where a guest block was
        already cut (a GENERATE_BLOCK of the test's own leads the
        delivery bundle), so the block that commits it is the next one.
        The relayer crashes with the ack written and its block not yet
        finalised, and restarts: the guest's write index names the
        committing block, the ack returns once, proven there, and no
        token is minted or lost on the way."""
        dep = make_dep(279)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        checker = ConservationChecker({"guest": dep.contract.bank,
                                       "counterparty": dep.counterparty.bank})
        guest, contract, cranker = dep.relayer.a, dep.contract, dep.cranker
        deliver = guest.api.deliver_packet

        def cut_ahead(*args, on_done, prelude=(), **kwargs):
            # Hold the cranker off until the relayer has restarted, and
            # wait until a block can be cut.
            cranker.paused = True
            if not can_cut_a_block(dep):
                dep.sim.schedule(0.4, lambda: cut_ahead(
                    *args, on_done=on_done, prelude=prelude, **kwargs))
                return
            guest.api.deliver_packet = deliver
            deliver(*args, on_done=lambda result: (on_done(result),
                                                   crash_once_parked()),
                    prelude=(ins.generate_block(),) + tuple(prelude), **kwargs)

        def crash_once_parked():
            if ("ack", str(guest_chan), 0) not in contract.ibc.written:
                dep.sim.schedule(0.1, crash_once_parked)
                return
            dep.relayer.crash()
            dep.relayer.restart()
            cranker.paused = False

        guest.api.deliver_packet = cut_ahead
        written: list[tuple[int, int]] = []
        dep.host.subscribe("PacketReceived", lambda event: written.append(
            (event.slot, event.payload["height_hint"])))
        acknowledge = dep.counterparty.ibc.acknowledge_packet
        proven_at: list[int] = []

        def record(packet, ack, proof, proof_height):
            proven_at.append(proof_height)
            return acknowledge(packet, ack, proof, proof_height)

        dep.counterparty.ibc.acknowledge_packet = record
        cp_send(dep, cp_chan)
        dep.run_for(300.0)

        [(slot, height)] = written
        # The precondition: a block was cut ahead of the ack in its slot.
        assert contract.block_at(height - 1).header.host_slot == slot
        assert proven_at == [height]
        # Its block was not final at the restart, so the restart owed
        # nothing: the block's own intake returned it.
        assert dep.trace_report().counters.get("relay.recovered", 0) == 0
        assert dep.counterparty.ibc.counters.packets_acknowledged == 1
        voucher = contract.transfer.voucher_denom(guest_chan, "PICA")
        assert contract.bank.balance("dave", voucher) == 50
        report = checker.check()
        assert report.ok, report.failures[:3]

    def test_each_ack_written_while_down_returns_exactly_once(self):
        """The relayer crashes the instant its first delivery bundles
        reach the host, and counterparty sends keep coming while it is
        down: the guest writes acks during the outage and the cranker
        finalises some of their blocks, while the relayer, down,
        observes none of it.  A restart re-reads every written ack from
        the chain, so each ack is proven and submitted to the
        counterparty once, none is refused, every one is sealed and no
        token moves twice."""
        dep = make_dep(280)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        checker = ConservationChecker({"guest": dep.contract.bank,
                                       "counterparty": dep.counterparty.bank})
        relayer, guest = dep.relayer, dep.relayer.a
        proven: list[int] = []
        submitted: list[int] = []
        proof_of, acknowledge = relayer._prove, dep.counterparty.ibc.acknowledge_packet

        def prove(src, kind, packet, height):
            if kind == "ack":
                proven.append(packet.sequence)
            return proof_of(src, kind, packet, height)

        def submit(packet, ack, proof, proof_height):
            submitted.append(packet.sequence)
            return acknowledge(packet, ack, proof, proof_height)

        relayer._prove, dep.counterparty.ibc.acknowledge_packet = prove, submit
        deliver = guest.api.deliver_packet

        def crash_behind(*args, **kwargs):
            guest.api.deliver_packet = deliver
            deliver(*args, **kwargs)
            dep.sim.schedule(0.0, relayer.crash)  # behind the whole wave

        guest.api.deliver_packet = crash_behind
        written_while_down: list[int] = []
        dep.host.subscribe("PacketReceived", lambda event: relayer.paused and (
            written_while_down.append(event.payload["packet"].sequence)))
        for _ in range(6):
            cp_send(dep, cp_chan)
        while not relayer.paused:
            dep.sim.step()
        for _ in range(4):                # sends keep coming while down
            cp_send(dep, cp_chan)
            dep.run_for(20.0)
        # The precondition: acks written while down, some of them in a
        # block finalised before the restart.
        assert written_while_down
        assert any(guest.ibc.written[("ack", str(guest_chan), sequence)].height
                   <= guest.latest_final() for sequence in written_while_down)

        relayer.restart()
        dep.run_for(900.0)
        assert sorted(proven) == sorted(submitted) == list(range(10))
        counters = dep.trace_report().counters
        assert counters.get("relay.duplicate_acks", 0) == 0
        assert counters.get("relay.acks.refused", 0) == 0
        assert counters.get("guest.acks.sealed") == 10
        assert dep.counterparty.ibc.counters.packets_acknowledged == 10
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 500
        report = checker.check()
        assert report.ok, report.failures[:3]

    def test_dead_incarnation_callbacks_are_dropped(self):
        dep = make_dep(276)
        dep.establish_link()
        incarnation = dep.relayer._incarnation
        dep.relayer.crash()
        assert dep.relayer._incarnation == incarnation + 1
        # A stale LC completion from before the crash must not corrupt
        # the new incarnation's state machine.
        dep.relayer.a.updates._lc_busy = True
        from repro.guest.api import LcUpdateResult
        dep.relayer.a.updates._lc_done(
            LcUpdateResult(height=1, transaction_count=0, signature_count=0,
                           total_fee=0, first_tx_time=0.0, last_tx_time=0.0,
                           success=False),
            generation=incarnation)
        assert dep.relayer.a.updates._lc_busy      # stale result ignored
        counters = dep.trace_report().counters
        assert counters.get("relay.lc_updates.stale_dropped") == 1


class TestBatchRequeue:
    def test_failed_batch_requeues_through_bounded_retry(self):
        dep = make_dep(277, RelayerConfig(
            batch_max_packets=16, batch_flush_seconds=1.0))
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        for _ in range(8):
            cp_send(dep, cp_chan)

        # Step until the delivery ops are staged in a batch (the LC
        # update gating them has succeeded), then open a total-loss
        # window: the coalesced BATCH_EXEC bundle is dropped in transit
        # and must fall back to the per-packet bounded retry path.
        deadline = dep.sim.now + 600.0
        while not dep.relayer.a.pending_batch and dep.sim.now < deadline:
            dep.sim.step()
        assert len(dep.relayer.a.pending_batch) == 8
        plan = FaultPlan().add("host_tx_drop", at=0.0, duration=15.0,
                               probability=1.0)
        ChaosInjector(dep, plan).arm()
        dep.run_for(600.0)

        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 400  # 8 x 50
        counters = dep.trace_report().counters
        assert counters.get("relay.batch.fallback", 0) >= 1
        assert counters.get("relay.batch.requeued", 0) == 8
        assert counters.get("relay.retries", 0) > 0     # backoff attempts
        assert counters.get("relay.retries.exhausted", 0) == 0
        assert counters.get("relay.redeliveries", 0) == 0  # never doubled


class TestRefusedHeaderPush:
    """A guest -> counterparty packet rides behind its header in one
    counterparty block, unawaited: if the header is refused the packet
    is refused after it, and both are on the books — not silently
    dropped, and not booked as a duplicate delivery."""

    @staticmethod
    def guest_send(dep, guest_chan):
        dep.contract.bank.mint("alice", "GUEST", 1_000)
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 250, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)

    def test_refusal_is_counted_and_is_not_a_duplicate(self):
        from dataclasses import replace
        dep = make_dep(seed=95)
        guest_chan, cp_chan = dep.establish_link()
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        counter = lambda name: dep.trace_report().counter(name)
        # The counterparty's client of the guest has moved an epoch on:
        # the header the relayer is about to push is an old-epoch one.
        client = dep.guest_client
        tracked = client.epoch
        client.epoch = replace(tracked, epoch_id=tracked.epoch_id + 1)
        self.guest_send(dep, guest_chan)
        dep.run_for(120.0)
        assert dep.counterparty.bank.balance("bob", voucher) == 0
        assert counter("relay.header_push.refused") == 1
        assert counter("relay.deliveries.refused") == 1
        assert counter("relay.duplicate_deliveries") == 0
        assert counter("relay.packets.to_counterparty") == 0
        assert dep.counterparty.ibc.counters.packets_received == 0

        # Nothing was lost for good: the commitment stands, and a
        # relayer that re-reads the chain delivers it.
        client.epoch = tracked
        dep.relayer.crash()
        dep.relayer.restart()
        dep.run_for(120.0)
        assert dep.counterparty.bank.balance("bob", voucher) == 250
        assert counter("relay.packets.to_counterparty") == 1

        # Delivered once more, the receipt is there: that is a duplicate.
        (height, packet), = [
            (block.height, packet) for block in dep.contract.blocks
            for packet in dep.contract.packets_in_block(block.height)]
        relayer = dep.relayer
        relayer._send(relayer.b, BatchOp(
            kind="recv", packet=packet, proof_height=height,
            proof=relayer._prove(relayer.a, "recv", packet, height)))
        dep.run_for(30.0)
        assert counter("relay.duplicate_deliveries") == 1
        assert counter("relay.deliveries.refused") == 1
        assert dep.counterparty.bank.balance("bob", voucher) == 250
        assert dep.counterparty.ibc.counters.packets_received == 1


class TestRestartOwesOnlyWhatTheChainsOwe:
    """A restart relays what is still committed and unreceived, and
    nothing that landed while the relayer was down."""

    def test_a_delivery_landed_while_down_is_not_delivered_again(self):
        """The relayer crashes behind its first delivery bundle, which
        lands while it is down: the restart finds every send received
        and submits no BATCH_EXEC entry for any of them."""
        dep = make_dep(281, RelayerConfig(batch_max_packets=16,
                                          batch_flush_seconds=1.0))
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        relayer, guest = dep.relayer, dep.relayer.a
        deliver = guest.api.deliver_batch

        def crash_behind(*args, **kwargs):
            guest.api.deliver_batch = deliver
            deliver(*args, **kwargs)
            dep.sim.schedule(0.0, relayer.crash)

        guest.api.deliver_batch = crash_behind
        for _ in range(4):
            cp_send(dep, cp_chan)
        while not relayer.paused:
            dep.sim.step()
        dep.run_for(120.0)
        # The precondition: the bundle landed while the relayer was down.
        assert dep.contract.ibc.counters.packets_received == 4

        relayer.restart()
        dep.run_for(600.0)
        counters = dep.trace_report().counters
        assert counters.get("guest.batch.entries_failed", 0) == 0
        assert counters.get("guest.batch.entries") == 4
        assert dep.contract.ibc.counters.packets_received == 4
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 200
        assert dep.counterparty.ibc.counters.packets_acknowledged == 4

    def test_sends_finalised_while_down_are_delivered_once(self):
        dep = make_dep(282)
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 500)
        received: list[int] = []
        recv_packet = dep.counterparty.ibc.recv_packet

        def counted(packet, *args, **kwargs):
            received.append(packet.sequence)
            return recv_packet(packet, *args, **kwargs)

        dep.counterparty.ibc.recv_packet = counted
        dep.relayer.crash()
        for _ in range(3):
            payload = dep.contract.transfer.make_payload(
                guest_chan, "GUEST", 100, "alice", "bob")
            dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(300.0)
        # The precondition: every send is in a block finalised while down.
        assert all(block.finalised for block in dep.contract.blocks
                   if dep.contract.packets_in_block(block.height))

        dep.relayer.restart()
        dep.run_for(600.0)
        assert sorted(received) == [0, 1, 2]
        counters = dep.trace_report().counters
        assert counters.get("relay.duplicate_deliveries", 0) == 0
        assert counters.get("relay.recovered") == 3
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 300
        assert dep.contract.ibc.counters.packets_acknowledged == 3

    def test_an_epoch_change_missed_while_down_is_pushed(self):
        """No ledger seed's crash spans an epoch end: a guest with short
        epochs rotates while the relayer is down, and the restart pushes
        the epoch-ending header the counterparty's client has not seen;
        traffic sent after it flows."""
        dep = Deployment(DeploymentConfig(
            seed=283,
            guest=GuestConfig(delta_seconds=90.0, min_stake_lamports=1,
                              epoch_length_host_blocks=500),
            profiles=simple_profiles(4), tracing=True,
        ))
        guest_chan, cp_chan = dep.establish_link()
        client = dep.guest_client

        def missed():
            return [block.height for block in dep.contract.blocks
                    if block.finalised and block.header.last_in_epoch
                    and block.height > client.latest_height()]

        dep.relayer.crash()
        while not missed():
            dep.run_for(10.0)
        [height] = missed()
        covered = cover_census(dep.relayer.b.updates)
        dep.relayer.restart()
        dep.run_for(60.0)
        assert covered.count(height) == 1
        assert client.consensus_root(height) is not None   # it took it

        dep.contract.bank.mint("alice", "GUEST", 500)
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 100, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(600.0)
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 100
        assert dep.contract.ibc.counters.packets_acknowledged == 1
        assert dep.trace_report().counters.get("relay.header_push.refused", 0) == 0
