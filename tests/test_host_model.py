"""Tests for the host chain's stochastic models: congestion, spikes,
event delivery, retention, and the compute meter's unit prices."""

import pytest

from repro.crypto.simsig import SimSigScheme
from repro.errors import ComputeBudgetExceededError
from repro.host.chain import HostChain, HostConfig
from repro.host.compute import ComputeMeter
from repro.host.fees import AdaptiveFee, BaseFee, BundleFee, PriorityFee
from repro.sim import Simulation
from repro.sim.rng import Rng
from tests.helpers import BlockRecorder


def make_chain(**config_kw):
    sim = Simulation(seed=33)
    chain = HostChain(sim, SimSigScheme(), HostConfig(**config_kw))
    return sim, chain


class TestCongestionModel:
    def test_bounded(self):
        sim, chain = make_chain()
        for hour in range(100):
            level = chain.congestion_at(hour * 3600.0 + 17.0)
            assert 0.0 <= level <= 1.0

    def test_diurnal_swing(self):
        sim, chain = make_chain(spike_probability=0.0)
        peak = chain.congestion_at(86_400.0 / 4)       # sine max
        trough = chain.congestion_at(3 * 86_400.0 / 4)  # sine min
        assert peak > trough
        assert peak - trough == pytest.approx(2 * chain.config.diurnal_congestion)

    def test_spike_hours_cached_deterministically(self):
        sim, chain = make_chain(spike_probability=0.5)
        spike_hour = next(
            hour for hour in range(100)
            if chain.congestion_at(hour * 3600.0) == chain.config.spike_congestion
        )
        t = spike_hour * 3600.0 + 10.0
        # Within a spiking hour the level pins to spike_congestion, so
        # repeated queries must agree wherever they land in the hour.
        assert chain.congestion_at(t) == chain.congestion_at(t + 60.0)

    def test_spike_level(self):
        sim, chain = make_chain(spike_probability=1.0, spike_congestion=0.9)
        assert chain.congestion_at(100.0) == 0.9

    def test_zero_spike_probability_never_spikes(self):
        sim, chain = make_chain(spike_probability=0.0, base_congestion=0.3)
        for hour in range(200):
            assert chain.congestion_at(hour * 3600.0) < 0.5


class TestSchedulingDelays:
    def test_congestion_hurts_base_most(self):
        rng_a, rng_b = Rng(1), Rng(1)
        base = BaseFee()
        calm = sum(base.scheduling_delay(rng_a, 0.1) for _ in range(500)) / 500
        busy = sum(base.scheduling_delay(rng_b, 0.9) for _ in range(500)) / 500
        assert busy > 3 * calm

    def test_priority_flat_under_load(self):
        rng_a, rng_b = Rng(2), Rng(2)
        priority = PriorityFee(1_000)
        calm = sum(priority.scheduling_delay(rng_a, 0.1) for _ in range(500)) / 500
        busy = sum(priority.scheduling_delay(rng_b, 0.9) for _ in range(500)) / 500
        assert busy < 4 * calm  # vs >10x for the base fee's quadratic queue

    def test_bundle_fastest_when_busy(self):
        rng = Rng(3)
        samples = 500
        mean = lambda strategy: sum(
            strategy.scheduling_delay(rng, 0.9) for _ in range(samples)
        ) / samples
        assert mean(BundleFee(1)) < mean(BaseFee())

    def test_adaptive_tracks_probe(self):
        probe = [0.0]
        fee = AdaptiveFee(lambda: probe[0])
        fee.fee(1, 0, 1_000_000)
        quiet_price = fee.last_cu_price
        probe[0] = 0.9
        fee.fee(1, 0, 1_000_000)
        assert fee.last_cu_price > 5 * quiet_price
        assert fee.last_cu_price <= fee.max_cu_price


class TestComputeMeter:
    def test_charge_accumulates(self):
        meter = ComputeMeter(budget=10_000)
        meter.charge(4_000)
        meter.charge(5_000)
        assert meter.remaining == 1_000

    def test_exhaustion_raises(self):
        meter = ComputeMeter(budget=1_000)
        with pytest.raises(ComputeBudgetExceededError):
            meter.charge(1_001)

    def test_budget_cannot_exceed_cap(self):
        with pytest.raises(ComputeBudgetExceededError):
            ComputeMeter(budget=2_000_000)  # above the 1.4 M cap

    def test_custom_hard_cap(self):
        meter = ComputeMeter(budget=5_000_000, hard_cap=12_000_000)
        meter.charge(4_999_999)
        assert meter.remaining == 1

    def test_hash_charge_scales_with_input(self):
        small, large = ComputeMeter(), ComputeMeter()
        small.charge_hash(32)
        large.charge_hash(32 * 100)
        assert large.consumed == 100 * small.consumed

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ComputeMeter().charge(-1)

    def test_signature_verify_units(self):
        meter = ComputeMeter()
        meter.charge_signature_verify()
        assert meter.consumed == 25_000


class TestBlockRetention:
    """The host keeps no block list: a listener sees every produced
    block (``HostChain.on_block``)."""

    def test_unbounded_by_default(self):
        sim, chain = make_chain()
        recorder = BlockRecorder(chain)
        # A slot whose mempool is empty leaves no block, so keep one
        # transaction or more waiting at every tick: four submissions a
        # slot, each held ~1 s by the base-fee queue.
        transaction = TestTransactionLayout().make_tx()
        for tenth in range(400):
            sim.schedule_at(tenth * 0.1, chain.submit, transaction)
        sim.run_until(40.0)
        assert chain.slot == 100
        assert not hasattr(chain, "blocks")
        assert [block.slot for block in recorder.blocks] == list(range(1, 101))

    def test_an_idle_slot_leaves_no_block(self):
        sim, chain = make_chain()
        recorder = BlockRecorder(chain)
        sim.run_until(40.0)
        assert chain.slot == 100
        # The first slot always ticks; the chain then sleeps.
        assert [block.slot for block in recorder.blocks] == [1]


class TestTransactionLayout:
    """Wire-size arithmetic: the quantity the 1232-byte cap binds on."""

    def make_tx(self, data=b"", verifies=0, extra_signers=0):
        from repro.crypto.simsig import SimSigScheme
        from repro.host.accounts import Address
        from repro.host.transaction import Instruction, SigVerify, Transaction
        scheme = SimSigScheme()
        keypair = scheme.keypair_from_seed(bytes(range(32)))
        entries = tuple(
            SigVerify(keypair.public_key, bytes([i]) * 32,
                      keypair.sign(bytes([i]) * 32))
            for i in range(verifies)
        )
        return Transaction(
            payer=Address.derive("layout-payer"),
            instructions=(Instruction(Address.derive("layout-prog"),
                                      (Address.derive("layout-acct"),), data),),
            fee_strategy=BaseFee(),
            extra_signers=tuple(Address.derive(f"extra-{i}")
                                for i in range(extra_signers)),
            sig_verifies=entries,
        )

    def test_data_bytes_count_one_to_one(self):
        small = self.make_tx(data=b"x" * 10).serialized_size()
        large = self.make_tx(data=b"x" * 110).serialized_size()
        assert large - small == 100

    def test_each_signer_adds_96_bytes(self):
        # 64 signature + 32 account key.
        base = self.make_tx().serialized_size()
        plus = self.make_tx(extra_signers=1).serialized_size()
        assert plus - base == 96

    def test_each_verify_entry_adds_its_envelope(self):
        base = self.make_tx().serialized_size()
        plus = self.make_tx(verifies=1).serialized_size()
        assert plus - base == 64 + 32 + 14 + 32  # sig + key + offsets + message

    def test_duplicate_accounts_counted_once(self):
        from repro.host.accounts import Address
        from repro.host.transaction import Instruction, Transaction
        addr = Address.derive("dup")
        tx = Transaction(
            payer=addr,
            instructions=(Instruction(Address.derive("p"), (addr, addr), b""),),
            fee_strategy=BaseFee(),
        )
        reference = Transaction(
            payer=addr,
            instructions=(Instruction(Address.derive("p"), (addr,), b""),),
            fee_strategy=BaseFee(),
        )
        # The second occurrence costs only its 1-byte account index.
        assert tx.serialized_size() == reference.serialized_size() + 1

    def test_unique_accounts_is_one_frozen_set(self):
        """Derived on first use and shared by the size check, a bundle's
        lock set and the rollback snapshot: nobody can edit it, and a
        copy with other signers derives its own."""
        import dataclasses
        tx = self.make_tx(extra_signers=2)
        accounts = tx.unique_accounts()
        assert isinstance(accounts, frozenset)
        assert len(accounts) == 1 + 2 + 1 + 1  # payer, extras, program, account
        tx.check_size()
        assert tx.unique_accounts() is accounts
        alone = dataclasses.replace(tx, extra_signers=())
        assert alone.unique_accounts() == accounts - set(tx.extra_signers)
        assert alone.serialized_size() == tx.serialized_size() - 2 * 96

    def test_max_chunk_bytes_consistent_with_cap(self):
        from repro.host.transaction import max_chunk_bytes
        from repro.units import MAX_TRANSACTION_BYTES
        budget = max_chunk_bytes(account_count=4, signer_count=1)
        tx = self.make_tx(data=b"x" * budget)
        assert tx.serialized_size() <= MAX_TRANSACTION_BYTES
