"""Unit tests for the off-chain actors: validators, cranker, relayer
internals, gossip and the counterparty chain model."""

import pytest

from repro import Deployment, DeploymentConfig
from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.simsig import SimSigScheme
from repro.errors import UnknownBlockError
from repro.guest.config import GuestConfig
from repro.ibc.host import _SequenceTracker
from repro.sim import Simulation
from repro.sim.gossip import GossipNetwork
from repro.validators.profiles import (
    TABLE_I_PROFILES,
    deployment_profiles,
    simple_profiles,
)


class TestSequenceTracker:
    def test_in_order_sealing_lags_by_two(self):
        tracker = _SequenceTracker()
        assert tracker.record(0) == []
        assert tracker.record(1) == [0]
        assert tracker.record(2) == [1]
        assert tracker.record(3) == [2]

    def test_out_of_order_catches_up(self):
        tracker = _SequenceTracker()
        assert tracker.record(0) == []
        assert tracker.record(2) == []      # gap at 1
        assert tracker.record(3) == []      # still gapped
        assert tracker.record(1) == [0, 1, 2]  # gap filled: 0..2 sealable

    def test_consume_false_defers(self):
        tracker = _SequenceTracker()
        tracker.record(0, consume=False)
        sealable = tracker.record(1, consume=False)
        assert sealable == [0]
        assert 0 in tracker.unsealed  # still tracked for later sealing

    def test_watermark_advances(self):
        tracker = _SequenceTracker()
        for sequence in (0, 1, 2):
            tracker.record(sequence)
        assert tracker.watermark == 3


class TestValidatorProfiles:
    def test_table_rows_complete(self):
        active = [p for p in TABLE_I_PROFILES if not p.silent]
        silent = [p for p in TABLE_I_PROFILES if p.silent]
        assert len(active) == 17
        assert len(silent) == 7

    def test_total_stake_is_published_value(self):
        from repro.units import lamports_to_usd
        total = sum(p.stake for p in TABLE_I_PROFILES)
        assert lamports_to_usd(total) == pytest.approx(1_250_000, rel=0.001)

    def test_fee_reconstruction_is_exact(self):
        """compute_unit_price must reproduce the Table I cost column."""
        from repro.host.fees import PriorityFee
        from repro.units import lamports_to_cents
        from repro.validators.profiles import SIGN_TX_COMPUTE_BUDGET
        for profile in TABLE_I_PROFILES:
            if profile.silent or profile.compute_unit_price() == 0:
                continue
            fee = PriorityFee(profile.compute_unit_price()).fee(
                1, 1, SIGN_TX_COMPUTE_BUDGET,
            )
            assert lamports_to_cents(fee) == pytest.approx(profile.fee_cents, abs=0.005)

    def test_validator_one_has_the_outage(self):
        one = next(p for p in TABLE_I_PROFILES if p.index == 1)
        assert one.outages and one.outages[0][1] == 36_000.0
        assert one.join_fraction == 0.0

    def test_joins_staggered_by_engagement(self):
        active = sorted((p for p in TABLE_I_PROFILES if not p.silent),
                        key=lambda p: p.index)
        # Lower signature counts => later joins (the calibration rule).
        assert active[0].join_fraction < active[10].join_fraction

    def test_silent_stake_below_bootstrap_threshold(self):
        """Quorum feasibility: epoch-0 = {#1}; early epochs must not be
        blockable by the silent seven."""
        one = next(p for p in TABLE_I_PROFILES if p.index == 1)
        silent_total = sum(p.stake for p in TABLE_I_PROFILES if p.silent)
        assert silent_total < one.stake / 2

    def test_simple_profiles_uniform(self):
        profiles = simple_profiles(5)
        assert len({p.stake for p in profiles}) == 1
        assert not any(p.silent for p in profiles)


class TestGossip:
    def test_delivery_with_delay(self):
        sim = Simulation(seed=9)
        gossip = GossipNetwork(sim, mean_delay=0.5)
        seen = []
        gossip.subscribe("topic", seen.append)
        gossip.publish("topic", "message")
        assert seen == []  # not synchronous
        sim.run_until(30.0)
        assert seen == ["message"]

    def test_topic_isolation(self):
        sim = Simulation(seed=9)
        gossip = GossipNetwork(sim)
        seen = []
        gossip.subscribe("a", seen.append)
        gossip.publish("b", "x")
        sim.run_until(30.0)
        assert seen == []

    def test_fanout(self):
        sim = Simulation(seed=9)
        gossip = GossipNetwork(sim)
        counts = [0, 0]
        gossip.subscribe("t", lambda _: counts.__setitem__(0, counts[0] + 1))
        gossip.subscribe("t", lambda _: counts.__setitem__(1, counts[1] + 1))
        gossip.publish("t", object())
        sim.run_until(30.0)
        assert counts == [1, 1]


class TestCounterpartyModel:
    def make(self, **kw):
        sim = Simulation(seed=15)
        chain = CounterpartyChain(sim, SimSigScheme(), CounterpartyConfig(**kw))
        return sim, chain

    def test_blocks_advance(self):
        sim, chain = self.make()
        sim.run_until(60.0)
        assert chain.height == 10  # 6 s cadence

    def test_lazy_commit_is_deterministic(self):
        sim, chain = self.make()
        sim.run_until(60.0)
        first = chain.light_client_update(5)
        again = chain.light_client_update(5)
        assert first.commit == again.commit
        assert len(first.commit) >= int(0.7 * chain.config.validator_count)

    def test_update_verifies_against_light_client(self):
        from repro.lightclient.tendermint import TendermintLightClient
        sim, chain = self.make()
        genesis = chain.genesis_validator_set()
        sim.run_until(60.0)
        client = TendermintLightClient(chain.config.chain_id, genesis)
        client.update(chain.light_client_update(9), chain.scheme)
        assert client.latest_height() == 9
        assert client.consensus_root(9) == chain.blocks[9].header.app_hash

    def test_app_hash_matches_store_view(self):
        sim, chain = self.make()
        chain.submit(lambda: chain.ibc.store.set("x", b"y"))
        sim.run_until(60.0)
        for height in (3, 7):
            record_root = chain.blocks[height].header.app_hash
            assert chain.store_at(height).root_hash == record_root

    def test_submit_callback_reports_height_and_errors(self):
        sim, chain = self.make()
        outcomes = []
        chain.submit(lambda: 42, on_result=lambda v, h: outcomes.append((v, h)))

        def boom():
            from repro.errors import IbcError
            raise IbcError("nope")

        chain.submit(boom, on_result=lambda v, h: outcomes.append((v, h)))
        sim.run_until(10.0)
        assert outcomes[0] == (42, 1)
        value, height = outcomes[1]
        assert isinstance(value, Exception) and height == 1

    def test_sent_packet_polling(self):
        sim, chain = self.make()
        chain.bank.mint("u", "PICA", 10)
        # A direct (non-block) send is attributed to the next height.
        sim.run_until(6.5)
        assert chain.sent_packets == [] and chain.ibc.writes == {}
        assert chain.ibc.write_height() == chain.height + 1 == 2

    def test_retention_prunes_old_blocks(self):
        """A chain keeps its block records from one below the lowest
        height its readers (relayers) can still reach; with no reader
        it keeps them all, and a read below what it keeps fails."""
        sim, chain = self.make()
        floor = [1]
        chain.ibc.readers.append(lambda: floor[0])
        sim.run_until(120.0)
        assert sorted(chain.blocks) == list(range(1, 21))
        floor[0] = 15
        sim.run_until(126.0)
        assert chain.height == 21
        assert sorted(chain.blocks) == list(range(14, 22))
        assert chain.ibc.kept_from == 14
        for read in (chain.store_at, chain.light_client_update):
            with pytest.raises(UnknownBlockError):
                read(13)
        assert chain.store_at(14).root_hash == chain.blocks[14].header.app_hash


class TestCrankerAndSweep:
    def test_cranker_generates_on_state_change(self):
        dep = Deployment(DeploymentConfig(
            seed=51,
            guest=GuestConfig(delta_seconds=10_000.0, min_stake_lamports=1),
            profiles=simple_profiles(4),
        ))
        height_before = dep.contract.head.height
        dep.contract.bank.mint("alice", "GUEST", 10)
        # Mutate guest state via a failing-later op? Use staking: bond
        # changes no trie state, so drive a block via establish_link
        # handshake instead.
        dep.establish_link()
        assert dep.contract.head.height > height_before
        assert dep.cranker.blocks_cranked >= 1

    def test_sweep_rescues_a_stuck_block(self):
        """A block generated while all validators missed the event still
        finalises via the periodic catch-up sweep."""
        dep = Deployment(DeploymentConfig(
            seed=52,
            guest=GuestConfig(delta_seconds=30.0, min_stake_lamports=1),
            # Zero online probability: validators never react to events,
            # only the sweep can save the chain.
            profiles=[
                p.__class__(**{**p.__dict__, "online_probability": 0.0})
                for p in simple_profiles(4)
            ],
        ))
        dep.run_for(300.0)
        finalised = [b for b in dep.contract.blocks[1:] if b.finalised]
        assert finalised, "sweep should have finalised the Δ blocks"

    @pytest.mark.parametrize("order", ["new-block-then-sweep",
                                       "sweep-then-new-block"])
    def test_one_signature_per_block_whichever_path_fires_first(self, order):
        """Regression: the sweep and the NewBlock path each looked only
        at ``head.signers`` on chain, so whichever fired while the
        other's SIGN_BLOCK was still in the mempool paid for a second
        one that failed ``already signed``."""
        dep = Deployment(DeploymentConfig(
            seed=53,
            guest=GuestConfig(delta_seconds=10.0, min_stake_lamports=1),
            # Nobody reacts to NewBlock on their own and the first sweep
            # is 22 s away: both paths are driven by hand below.
            profiles=[
                p.__class__(**{**p.__dict__, "online_probability": 0.0})
                for p in simple_profiles(4)
            ],
        ))
        while dep.contract.head.height < 1:
            dep.sim.step()
        head = dep.contract.head
        assert dep.sim.now < 20.0 and not head.finalised and not head.signers
        node = dep.validators[0]

        def new_block():
            node._sign(head.height)

        first, second = ((new_block, node._sweep)
                         if order == "new-block-then-sweep"
                         else (node._sweep, new_block))
        first()
        dep.run_for(0.1)              # submitted, not yet executed
        assert not head.signers and node._signing == {head.height}
        second()
        dep.run_for(5.0)
        assert node.keypair.public_key in head.signers
        assert [(r.height, r.success) for r in node.records] == [(head.height, True)]
        # The receipt cleared the in-flight mark: a rolled-back or
        # failed signature can be paid for again.
        assert node._signing == set()
