"""Failure injection: outages of each off-chain actor, and recovery.

The paper's §III argues the guest blockchain degrades gracefully: the
relayer and cranker are permissionless and untrusted (an outage delays,
never corrupts), and validator outages stall finalisation only until
quorum returns (§V-C).  These tests inject each outage and verify both
the degradation and the recovery.

Originally these scenarios flipped actor flags by hand; they now drive
the same outages through the declarative `repro.chaos` FaultPlan API
(docs/CHAOS.md) while keeping the original assertions.  A relayer
outage is a ``relayer_crash`` fault (harsher than the old pause: it
also loses volatile state), a cranker outage a ``cranker_crash``, and
the mass validator outage one ``validator_crash`` per validator.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.guest.config import GuestConfig
from repro.validators.profiles import simple_profiles


def make_dep(seed):
    return Deployment(DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=90.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))


def arm(dep, kind, duration, **kwargs):
    plan = FaultPlan(label=f"test-{kind}").add(kind, at=0.0,
                                               duration=duration, **kwargs)
    return ChaosInjector(dep, plan).arm()


class TestRelayerOutage:
    def test_packets_delayed_not_lost(self):
        dep = make_dep(161)
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 1_000)

        arm(dep, "relayer_crash", duration=300.0)
        dep.run_for(1.0)                 # the fault fires
        assert dep.relayer.paused
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 100, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(290.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        # Down: the packet is committed and finalised on the guest but
        # never reaches the counterparty.
        assert dep.contract.ibc.counters.packets_sent == 1
        assert dep.counterparty.bank.balance("bob", voucher) == 0

        dep.run_for(300.0)               # injector restarted the relayer
        assert not dep.relayer.paused
        assert dep.counterparty.bank.balance("bob", voucher) == 100
        assert dep.contract.ibc.counters.packets_acknowledged == 1

    def test_cp_to_guest_queue_drains_after_outage(self):
        dep = make_dep(162)
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 1_000)
        arm(dep, "relayer_crash", duration=250.0)

        def send():
            data = dep.counterparty.transfer.make_payload(cp_chan, "PICA", 50, "carol", "dave")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)

        for _ in range(3):
            dep.counterparty.submit(send)
        dep.run_for(200.0)
        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.relayer.paused
        assert dep.contract.bank.balance("dave", voucher) == 0

        dep.run_for(450.0)               # restarted at t=250; queue drains
        assert not dep.relayer.paused
        assert dep.contract.bank.balance("dave", voucher) == 150


class TestCrankerOutage:
    def test_blocks_stall_then_resume(self):
        dep = make_dep(163)
        dep.establish_link()
        arm(dep, "cranker_crash", duration=250.0)
        dep.run_for(1.0)
        assert dep.cranker.paused
        height_at_pause = dep.contract.head.height
        dep.contract.bank.mint("alice", "GUEST", 100)
        (_, guest_chan), = dep.relayer.a.channels
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 10, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(199.0)
        # Nobody cranks GenerateBlock: the commitment sits outside any
        # block (the state root moved but no block was generated).
        assert dep.contract.head.height == height_at_pause

        dep.run_for(170.0)               # the fault window closed at 250
        assert not dep.cranker.paused
        assert dep.contract.head.height > height_at_pause
        assert dep.contract.ibc.counters.packets_sent == 1

    def test_anyone_can_crank(self):
        """GenerateBlock is permissionless: with the regular cranker down,
        any funded account can step in (Alg. 1: "can be invoked by
        anyone")."""
        dep = make_dep(164)
        dep.establish_link()
        arm(dep, "cranker_crash", duration=600.0)   # down for the whole test
        dep.contract.bank.mint("alice", "GUEST", 100)
        (_, guest_chan), = dep.relayer.a.channels
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 10, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(60.0)
        assert dep.cranker.paused
        height_before = dep.contract.head.height

        results = []
        dep.user_api.generate_block(on_result=results.append)  # a user cranks
        dep.run_for(30.0)
        assert results[0].success
        assert dep.contract.head.height == height_before + 1


class TestValidatorMassOutage:
    def test_finalisation_stalls_and_recovers(self):
        """§V-C writ large: take every validator offline, the head sticks
        unfinalised; bring them back, the sweep finalises it."""
        dep = make_dep(165)
        dep.establish_link()
        plan = FaultPlan(label="mass-outage")
        for node in dep.validators:
            plan.add("validator_crash", at=0.0, duration=400.0,
                     target=str(node.profile.index))
        ChaosInjector(dep, plan).arm()

        dep.contract.bank.mint("alice", "GUEST", 100)
        (_, guest_chan), = dep.relayer.a.channels
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 10, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(300.0)
        stalled = dep.contract.head
        assert not stalled.finalised  # stalled mid-outage

        dep.run_for(400.0)  # outage over; sweeps catch up
        assert stalled.finalised
        finalisation_delay = stalled.finalised_at - stalled.generated_at
        assert finalisation_delay > 100.0  # a §V-C-style straggler block
        # The chain moved on after recovery.
        assert dep.contract.head.height >= stalled.height
