"""Tests for the §VI extensions: self-destruction, adaptive fees,
rate-limited clients and host portability.

The paper lists these as future work; the reproduction implements them
so the design discussion is executable.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.host.chain import HostChain, HostConfig
from repro.host.fees import AdaptiveFee, BaseFee
from repro.host.profiles import HOST_PROFILES, near_like_profile, tron_like_profile
from repro.host.transaction import Instruction, Transaction
from repro.crypto.simsig import SimSigScheme
from repro.ibc.apps.transfer import Bank, RateLimiter, TransferApp
from repro.ibc.identifiers import PortId
from repro.relayer.updates import LC_UPDATE_PLANS
from repro.sim import Simulation
from repro.units import sol_to_lamports
from repro.validators.profiles import simple_profiles

from tests.test_guest_contract import run_tx


def make_dep(seed=41, **guest_kw):
    guest_kw.setdefault("delta_seconds", 60.0)
    guest_kw.setdefault("min_stake_lamports", 1)
    return Deployment(DeploymentConfig(
        seed=seed,
        guest=GuestConfig(**guest_kw),
        profiles=simple_profiles(4),
    ))


class TestSelfDestruct:
    """§VI-A: the last-validator bank-run mitigation."""

    def test_disabled_by_default(self):
        dep = make_dep()
        dep.run_for(30.0)
        receipt = run_tx(dep, ins.self_destruct())
        assert not receipt.success
        assert "not enabled" in receipt.error

    def test_requires_inactivity(self):
        dep = make_dep(self_destruct_after_seconds=10_000.0)
        dep.run_for(120.0)  # blocks still flowing (Δ = 60 s)
        receipt = run_tx(dep, ins.self_destruct())
        assert not receipt.success
        assert "inactivity" in receipt.error

    def test_releases_all_stake_after_silence(self):
        # Every operator walked away (silent validators): the head can
        # never finalise again — the abandoned-chain scenario of §VI-A.
        import dataclasses
        profiles = [dataclasses.replace(p, silent=True) for p in simple_profiles(4)]
        dep = Deployment(DeploymentConfig(
            seed=43,
            guest=GuestConfig(
                delta_seconds=30.0, min_stake_lamports=1,
                self_destruct_after_seconds=500.0,
                unbonding_seconds=10_000.0,
            ),
            profiles=profiles,
        ))
        dep.run_for(700.0)
        assert dep.contract.head.height <= 1  # chain stalled near genesis

        receipt = run_tx(dep, ins.self_destruct())
        assert receipt.success, receipt.error
        assert dep.contract.halted

        # Every validator can now withdraw immediately, despite the
        # one-week unbonding configuration.
        validator = dep.validators[0]
        key = validator.keypair.public_key
        stake = dep.contract.staking.withdrawable(key, dep.sim.now)
        assert stake == validator.profile.stake

        # And the chain accepts nothing but stake recovery.
        receipt = run_tx(dep, ins.generate_block())
        assert not receipt.success
        assert "self-destructed" in receipt.error

        receipt = run_tx(dep, ins.withdraw_stake(key),
                         payer=validator.api.payer)
        assert receipt.success


class TestLcRateLimit:
    """§VI-C: bounding how fast the counterparty client can move."""

    def test_second_update_within_window_rejected(self):
        dep = make_dep(seed=44, lc_min_update_interval=600.0)
        dep.run_for(30.0)

        outcomes = []
        dep.relayer_api.submit_lc_update(
            dep.counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=outcomes.append,
        )
        dep.run_for(90.0)
        assert outcomes[-1].success

        dep.run_for(60.0)  # well inside the 600 s window
        dep.relayer_api.submit_lc_update(
            dep.counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=outcomes.append,
        )
        dep.run_for(90.0)
        assert not outcomes[-1].success

        dep.run_for(600.0)  # window passed
        dep.relayer_api.submit_lc_update(
            dep.counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=outcomes.append,
        )
        dep.run_for(90.0)
        assert outcomes[-1].success


class TestTransferRateLimit:
    """§VI-C: capping inbound value per window."""

    def make_app(self, now):
        clock = lambda: now[0]
        bank = Bank()
        app = TransferApp(bank, PortId("transfer"),
                          rate_limiter=RateLimiter(1_000, 60.0, clock))
        return bank, app

    def recv(self, app, amount, channel="channel-0"):
        from repro.ibc.identifiers import ChannelId
        from repro.ibc.packet import Packet
        payload = FungiblePayload(amount)
        return app.on_recv(Packet(
            sequence=0, source_port=PortId("transfer"),
            source_channel=ChannelId("channel-9"),
            destination_port=PortId("transfer"),
            destination_channel=ChannelId(channel),
            payload=payload, timeout_timestamp=0.0,
        ))

    def test_within_budget_accepted(self):
        now = [0.0]
        bank, app = self.make_app(now)
        ack = self.recv(app, 400)
        assert ack.success
        assert bank.balance("rcv", app.voucher_denom("channel-0", "X")) == 400

    def test_over_budget_rejected_with_error_ack(self):
        now = [0.0]
        bank, app = self.make_app(now)
        assert self.recv(app, 800).success
        ack = self.recv(app, 300)  # 1100 > 1000
        assert not ack.success
        assert b"rate limit" in ack.result

    def test_window_slides(self):
        now = [0.0]
        bank, app = self.make_app(now)
        assert self.recv(app, 1_000).success
        assert not self.recv(app, 1).success
        now[0] = 61.0
        assert self.recv(app, 1_000).success

    def test_limiter_validates_config(self):
        import pytest
        from repro.errors import IbcError
        with pytest.raises(IbcError):
            RateLimiter(0, 60.0, lambda: 0.0)
        with pytest.raises(IbcError):
            RateLimiter(10, 0.0, lambda: 0.0)


def FungiblePayload(amount):
    from repro.ibc.apps.transfer import FungibleTokenPacketData
    return FungibleTokenPacketData("X", amount, "snd", "rcv").to_bytes()


class TestAdaptiveFee:
    """§VI-B: pricing to the observed congestion."""

    def test_price_scales_with_congestion(self):
        level = [0.0]
        fee = AdaptiveFee(lambda: level[0])
        low = fee.fee(1, 0, 1_400_000)
        level[0] = 1.0
        high = fee.fee(1, 0, 1_400_000)
        assert high > 10 * low

    def test_cheaper_than_fixed_priority_when_quiet(self):
        from repro.host.fees import PriorityFee
        fixed = PriorityFee(compute_unit_price=5_000_000)
        adaptive = AdaptiveFee(lambda: 0.1)
        assert adaptive.fee(1, 0, 1_400_000) < fixed.fee(1, 0, 1_400_000) / 5

    def test_end_to_end_on_chain(self):
        sim = Simulation(seed=46)
        chain = HostChain(sim, SimSigScheme(), HostConfig(
            base_congestion=0.2, diurnal_congestion=0.0, spike_probability=0.0,
        ))
        from repro.host.accounts import Address
        payer = Address.derive("adaptive-payer")
        chain.airdrop(payer, sol_to_lamports(100.0))

        class Sink:
            program_id = Address.derive("adaptive-sink")

            def execute(self, ctx, data):
                ctx.meter.charge(1_000)

        chain.deploy(Sink())
        fee = AdaptiveFee(lambda: chain.congestion_at(sim.now))
        results = []
        tx = Transaction(
            payer=payer,
            instructions=(Instruction(Sink.program_id, (), b"x"),),
            fee_strategy=fee, compute_budget=200_000,
        )
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert results[0].success
        assert results[0].fee_paid > BaseFee().fee(1, 0, 200_000)


class TestHostPortability:
    """§VI-D: the same Guest Contract on differently-shaped hosts."""

    @pytest.mark.parametrize("profile_name", sorted(HOST_PROFILES))
    def test_link_and_transfer_on_every_host(self, profile_name):
        host_config = HOST_PROFILES[profile_name]()
        host_config.retain_blocks = 2_000
        dep = Deployment(DeploymentConfig(
            seed=47,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            host=host_config,
            profiles=simple_profiles(4),
        ))
        guest_chan, cp_chan = dep.establish_link(max_seconds=3_600.0)

        dep.contract.bank.mint("alice", "GUEST", 100)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 50, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(300.0)
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 50

    def test_roomier_transactions_mean_fewer_chunks(self):
        """The Fig. 4 transaction count is a consequence of the host's
        envelope: a NEAR-sized transaction swallows the whole update."""
        results = {}
        for name, factory in (("solana", HOST_PROFILES["solana"]),
                              ("near-like", near_like_profile)):
            config = factory()
            config.retain_blocks = 2_000
            dep = Deployment(DeploymentConfig(
                seed=48,
                guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
                host=config,
                profiles=simple_profiles(4),
            ))
            dep.establish_link(max_seconds=3_600.0)
            updates = dep.relayer.metrics.lc_updates
            results[name] = sum(u.transaction_count for u in updates) / len(updates)
        assert results["near-like"] < results["solana"] / 5

    def test_tron_like_profile_shape(self):
        profile = tron_like_profile()
        assert profile.slot_seconds == 3.0
        assert profile.max_transaction_bytes > 1232
