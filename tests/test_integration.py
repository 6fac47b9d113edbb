"""End-to-end integration tests: the whole deployment on one event loop.

These are the tests that justify the reproduction: handshakes, ICS-20
transfers in both directions (with acks, sealing and commitment
clean-up), the Δ empty-block rule, the chunked light-client machinery,
and the Fisherman → slashing pipeline — all through real host
transactions under the real runtime limits.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.counterparty.chain import CounterpartyConfig
from repro.guest.config import GuestConfig
from repro.lightclient.tendermint import LightClientUpdate
from repro.validators.profiles import simple_profiles
from tests.helpers import CounterpartyRecorder


def small_config(seed=11, delta=120.0, **kw):
    return DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=delta, min_stake_lamports=1),
        profiles=simple_profiles(4),
        **kw,
    )


@pytest.fixture(scope="module")
def linked():
    """One linked deployment shared by the read-only checks."""
    dep = Deployment(small_config())
    dep.cp_records = CounterpartyRecorder(dep.counterparty).records
    channels = dep.establish_link()
    return dep, channels


class TestLinkEstablishment:
    def test_link_opens(self, linked):
        dep, (guest_chan, cp_chan) = linked
        assert str(guest_chan) == "channel-0"
        assert str(cp_chan) == "channel-0"

    def test_chunked_updates_happened(self, linked):
        """The handshake itself needs counterparty consensus on the
        guest — through the chunked flow of §IV — and each update ships
        the minimal power-ranked prefix of its commit crossing the
        client's two thresholds: over 2/3 of the header's set and over
        1/3 of the set the client trusted before it (none on first
        use), dropping its weakest signer failing one of them."""
        dep, _ = linked
        assert len(dep.relayer.metrics.lc_updates) >= 2
        trusted = None
        for result in dep.relayer.metrics.lc_updates:
            assert result.success
            assert result.transaction_count > 10  # genuinely chunked
            record = dep.cp_records[result.height]
            update = LightClientUpdate(header=record.header, commit=record.commit,
                                       validator_set=record.validator_set)
            valset = update.validator_set
            powers = valset.power_map()
            ranked = [key for key, _ in sorted(
                update.commit.signatures, key=lambda entry: powers[entry[0]],
                reverse=True)]

            def crosses(count: int) -> bool:
                signers = ranked[:count]
                signed = sum(powers[key] for key in signers)
                overlap = sum(trusted.power_of(key) for key in signers) \
                    if trusted is not None else 0
                return (signed > valset.total_power * 2 // 3
                        and (trusted is None
                             or overlap * 3 > trusted.total_power))

            assert crosses(result.signature_count)
            assert not crosses(result.signature_count - 1)
            assert result.signature_count < len(ranked)
            trusted = valset

    def test_guest_blocks_finalised_by_quorum(self, linked):
        dep, _ = linked
        finalised = [b for b in dep.contract.blocks[1:] if b.finalised]
        assert finalised
        for block in finalised:
            epoch = dep.contract.epochs[block.header.epoch_id]
            assert epoch.has_quorum(block.signer_set())


class TestGuestToCounterpartyTransfer:
    def test_full_round_trip(self):
        dep = Deployment(small_config(seed=21))
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 1_000)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 250, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(180.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 250
        assert dep.contract.bank.balance("alice", "GUEST") == 750
        # The ack came back: the guest's commitment is deleted.
        assert dep.contract.ibc.counters.packets_acknowledged == 1
        from repro.ibc import commitment as paths
        assert not dep.contract.ibc.store.contains_seq(
            paths.commitment_prefix("transfer", guest_chan), 0,
        )

    def test_voucher_round_trip_preserves_supply(self):
        dep = Deployment(small_config(seed=22))
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 1_000)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 400, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(180.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 400

        def send_back():
            data = dep.counterparty.transfer.make_payload(cp_chan, voucher, 400, "bob", "alice")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)
        dep.counterparty.submit(send_back)
        dep.run_for(300.0)

        assert dep.contract.bank.balance("alice", "GUEST") == 1_000
        assert dep.counterparty.bank.total_supply(voucher) == 0
        escrow = dep.contract.transfer.escrow_address(guest_chan)
        assert dep.contract.bank.balance(escrow, "GUEST") == 0


class TestCounterpartyToGuestTransfer:
    def test_delivery_via_bundles(self):
        dep = Deployment(small_config(seed=23))
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 900)

        def send():
            data = dep.counterparty.transfer.make_payload(cp_chan, "PICA", 300, "carol", "dave")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)
        dep.counterparty.submit(send)
        dep.run_for(240.0)

        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 300
        # §V-A: the delivery was a small atomic bundle in one host block.
        deliveries = dep.relayer.metrics.deliveries
        assert deliveries and deliveries[-1].success
        assert 2 <= deliveries[-1].transaction_count <= 6

    def test_receipt_sealed_after_delivery(self):
        dep = Deployment(small_config(seed=24))
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 900)

        def send():
            data = dep.counterparty.transfer.make_payload(cp_chan, "PICA", 10, "carol", "dave")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)
        for _ in range(3):
            dep.counterparty.submit(send)
            dep.run_for(240.0)

        # Lagged sealing: with receipts 0..2 written, receipt 0 is sealed.
        from repro.errors import SealedNodeError
        from repro.ibc import commitment as paths
        with pytest.raises(SealedNodeError):
            dep.contract.ibc.store.get_seq(
                paths.receipt_prefix("transfer", guest_chan), 0,
            )
        assert dep.contract.ibc.counters.packets_received == 3

    def test_guest_ack_returns_and_is_sealed(self):
        dep = Deployment(small_config(seed=25))
        guest_chan, cp_chan = dep.establish_link()
        dep.counterparty.bank.mint("carol", "PICA", 900)

        def send():
            data = dep.counterparty.transfer.make_payload(cp_chan, "PICA", 10, "carol", "dave")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)
        for _ in range(3):
            dep.counterparty.submit(send)
            dep.run_for(300.0)

        assert dep.counterparty.ibc.counters.packets_acknowledged == 3
        # After the counterparty processed the acks, the relayer confirmed
        # them on the guest and the lagged rule sealed ack 0 (§III-A).
        from repro.errors import SealedNodeError
        from repro.ibc import commitment as paths
        with pytest.raises(SealedNodeError):
            dep.contract.ibc.store.get_seq(
                paths.ack_prefix("transfer", guest_chan), 0,
            )


class TestDeltaRule:
    def test_empty_blocks_only_after_delta(self):
        dep = Deployment(small_config(seed=26, delta=100.0))
        dep.run_for(350.0)
        blocks = dep.contract.blocks
        # Genesis + Δ-triggered empty blocks; intervals ≥ Δ (minus the
        # cranker's poll jitter margin).
        times = [b.header.timestamp for b in blocks]
        intervals = [b - a for a, b in zip(times, times[1:])]
        assert intervals, "no empty blocks were generated"
        for interval in intervals:
            assert interval >= 100.0

    def test_state_change_generates_promptly(self):
        dep = Deployment(small_config(seed=27, delta=10_000.0))
        dep.establish_link()  # handshake mutates state repeatedly
        # Blocks exist long before Δ = 10 000 s.
        assert dep.contract.head.height >= 2
        assert dep.sim.now < 10_000.0


class TestFishermanSlashing:
    def test_equivocation_slashed(self):
        config = small_config(seed=28)
        config.with_fisherman = True
        dep = Deployment(config)
        dep.run_for(30.0)

        offender = dep.validators[0]
        stake_before = dep.contract.staking.stake_of(offender.keypair.public_key)
        assert stake_before > 0

        from repro.fisherman.evidence import ByzantineValidator
        byz = ByzantineValidator(dep.sim, dep.gossip, offender.keypair)
        byz.equivocate(height=0)  # conflicts with the real genesis block
        dep.run_for(60.0)

        assert dep.fisherman is not None
        assert dep.fisherman.reports and dep.fisherman.reports[0].accepted
        assert dep.contract.staking.stake_of(offender.keypair.public_key) == 0
        assert dep.contract.staking.slashed_total >= stake_before // 2

    def test_above_head_signature_slashed(self):
        config = small_config(seed=29)
        config.with_fisherman = True
        dep = Deployment(config)
        dep.run_for(30.0)
        offender = dep.validators[1]

        from repro.fisherman.evidence import ByzantineValidator
        byz = ByzantineValidator(dep.sim, dep.gossip, offender.keypair)
        byz.equivocate(height=500)  # far above the head
        dep.run_for(60.0)
        assert dep.fisherman.reports and dep.fisherman.reports[0].accepted

    def test_honest_signature_not_prosecuted(self):
        config = small_config(seed=30)
        config.with_fisherman = True
        dep = Deployment(config)
        dep.run_for(30.0)

        from repro.fisherman.evidence import GOSSIP_TOPIC, BlockClaim
        honest = dep.validators[0].keypair
        genesis = dep.contract.blocks[0]
        claim = BlockClaim(
            validator=honest.public_key,
            height=0,
            fingerprint=genesis.header.fingerprint(),
            signature=honest.sign(genesis.header.sign_message()),
        )
        dep.gossip.publish(GOSSIP_TOPIC, claim)
        dep.run_for(30.0)
        assert not dep.fisherman.reports
        assert dep.contract.staking.stake_of(honest.public_key) > 0

    def test_forged_evidence_rejected_on_chain(self):
        """A fisherman cannot frame a validator: the evidence signature
        is runtime-verified against the accused key."""
        config = small_config(seed=31)
        config.with_fisherman = True
        dep = Deployment(config)
        dep.run_for(30.0)

        framer = dep.scheme.keypair_from_seed(bytes([66]) * 32)
        victim = dep.validators[0].keypair.public_key
        from repro.guest.block import sign_message
        fingerprint = b"\x99" * 32
        forged_signature = framer.sign(sign_message(3, fingerprint))

        results = []
        dep.relayer_api.submit_evidence(
            offender=victim, height=3, fingerprint=fingerprint,
            signature=forged_signature,
            message=sign_message(3, fingerprint),
            on_result=results.append,
        )
        dep.run_for(30.0)
        assert results and not results[0].success
        assert dep.contract.staking.stake_of(victim) > 0


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def trace(seed):
            dep = Deployment(small_config(seed=seed))
            dep.establish_link()
            dep.run_for(60.0)
            return (
                dep.contract.head.height,
                bytes(dep.contract.store.root_hash),
                [r.transaction_count for r in dep.relayer.metrics.lc_updates],
                dep.host.total_fees_burned(),
            )

        assert trace(77) == trace(77)

    def test_different_seeds_diverge(self):
        def fees(seed):
            dep = Deployment(small_config(seed=seed))
            dep.establish_link()
            return dep.host.total_fees_burned()

        assert fees(78) != fees(79)
