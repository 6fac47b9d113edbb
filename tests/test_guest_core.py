"""Unit tests for guest blocks, epochs and the staking pool."""

import dataclasses
from fractions import Fraction

import pytest

from repro.crypto.hashing import Hash, hash_concat, merkle_root
from repro.crypto.simsig import SimSigScheme
from repro.errors import GuestError, StakeError
from repro.guest.block import GuestBlock, GuestBlockHeader, sign_message
from repro.guest.config import GuestConfig
from repro.guest.epoch import Epoch
from repro.guest.staking import StakingPool


@pytest.fixture
def scheme():
    return SimSigScheme()


def keypair(scheme, i):
    return scheme.keypair_from_seed(bytes([i]) * 32)


def make_header(height=1, state_root=None, epoch=None, **overrides):
    epoch = epoch or Epoch(epoch_id=0, validators={}, quorum_stake=0)
    defaults = dict(
        height=height,
        prev_hash=Hash.zero(),
        timestamp=100.0,
        host_slot=250,
        state_root=state_root or Hash.of(b"root"),
        epoch_id=epoch.epoch_id,
        epoch_hash=epoch.canonical_hash(),
    )
    defaults.update(overrides)
    return GuestBlockHeader(**defaults)


class TestHeaders:
    def test_fingerprint_deterministic(self):
        assert make_header().fingerprint() == make_header().fingerprint()

    def test_fingerprint_binds_every_field(self):
        base = make_header()
        changes = [
            dict(height=2),
            dict(state_root=Hash.of(b"other")),
            dict(timestamp=101.0),
            dict(host_slot=251),
            dict(prev_hash=Hash.of(b"parent")),
            dict(packet_hashes=(Hash.of(b"p"),)),
            dict(last_in_epoch=True),
            dict(next_epoch_hash=Hash.of(b"next")),
        ]
        variants = [make_header(**change) for change in changes]
        fingerprints = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)
        # The fingerprint is kept on the header once derived: a copy
        # with one field changed must start over from its own fields.
        assert "_fingerprint" in vars(base)
        for change, variant in zip(changes, variants):
            copy = dataclasses.replace(base, **change)
            assert "_fingerprint" not in vars(copy)
            assert copy.fingerprint() == variant.fingerprint()

    def test_a_warm_header_is_the_cold_header(self):
        warm = make_header(height=3, packet_hashes=(Hash.of(b"p"), Hash.of(b"q")),
                           last_in_epoch=True)
        cold = dataclasses.replace(warm)
        reference = bytes(hash_concat(
            b"guest-block", (3).to_bytes(8, "big"), warm.prev_hash,
            (100_000).to_bytes(8, "big"), (250).to_bytes(8, "big"),
            warm.state_root, (0).to_bytes(8, "big"), warm.epoch_hash,
            merkle_root(warm.packet_hashes), b"\x01", Hash.zero()))
        assert warm.fingerprint() == reference
        assert warm.fingerprint() is warm.fingerprint()
        assert warm.sign_message() == sign_message(3, reference)
        assert bytes(warm.block_hash()) == reference
        assert vars(cold).keys() < vars(warm).keys()
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert cold.fingerprint() == reference

    def test_sign_message_embeds_height(self):
        header = make_header(height=7)
        message = header.sign_message()
        assert message == sign_message(7, header.fingerprint())
        assert int.from_bytes(message[10:18], "big") == 7

    def test_block_signature_collection(self, scheme):
        block = GuestBlock(header=make_header())
        kp = keypair(scheme, 1)
        block.add_signature(kp.public_key, kp.sign(block.header.sign_message()))
        assert kp.public_key in block.signer_set()
        with pytest.raises(GuestError):
            block.add_signature(kp.public_key, kp.sign(b"again"))


class TestEpoch:
    def make(self, scheme, stakes):
        validators = {keypair(scheme, i).public_key: s for i, s in enumerate(stakes, start=1)}
        total = sum(stakes)
        return Epoch(epoch_id=0, validators=validators, quorum_stake=total * 2 // 3 + 1)

    def test_quorum_by_stake_not_count(self, scheme):
        # One whale holds 70 %: alone it reaches quorum; the other four
        # together (30 %) never do.
        whale = keypair(scheme, 1).public_key
        minnows = [keypair(scheme, i).public_key for i in range(2, 6)]
        epoch = Epoch(
            epoch_id=0,
            validators={whale: 700, **{m: 75 for m in minnows}},
            quorum_stake=1000 * 2 // 3 + 1,
        )
        assert epoch.has_quorum({whale})
        assert not epoch.has_quorum(set(minnows))

    def test_non_validator_contributes_nothing(self, scheme):
        epoch = self.make(scheme, [100, 100, 100])
        stranger = keypair(scheme, 99).public_key
        assert epoch.signed_stake({stranger}) == 0

    def test_canonical_hash_order_independent(self, scheme):
        a = self.make(scheme, [100, 200, 300])
        b = Epoch(epoch_id=0, validators=dict(reversed(list(a.validators.items()))),
                  quorum_stake=a.quorum_stake)
        assert a.canonical_hash() == b.canonical_hash()

    def test_canonical_hash_binds_stakes(self, scheme):
        a = self.make(scheme, [100, 200, 300])
        changed = dict(a.validators)
        first = next(iter(changed))
        changed[first] += 1
        b = Epoch(epoch_id=0, validators=changed, quorum_stake=a.quorum_stake)
        assert a.canonical_hash() != b.canonical_hash()

    def test_invalid_quorum_rejected(self, scheme):
        kp = keypair(scheme, 1)
        with pytest.raises(GuestError):
            Epoch(epoch_id=0, validators={kp.public_key: 100}, quorum_stake=101)
        with pytest.raises(GuestError):
            Epoch(epoch_id=0, validators={kp.public_key: 0}, quorum_stake=1)


class TestStakingPool:
    @pytest.fixture
    def pool(self):
        return StakingPool(GuestConfig(min_stake_lamports=100, max_validators=3))

    def test_bond_and_select(self, pool, scheme):
        keys = [keypair(scheme, i).public_key for i in range(1, 6)]
        for i, key in enumerate(keys):
            pool.bond(key, 100 + i * 50)
        epoch = pool.select_epoch(epoch_id=1)
        # Top three by stake.
        assert len(epoch) == 3
        assert epoch.stake(keys[4]) == 300
        assert epoch.stake(keys[0]) == 0

    def test_below_minimum_excluded(self, pool, scheme):
        pool.bond(keypair(scheme, 1).public_key, 99)
        with pytest.raises(StakeError):
            pool.select_epoch(epoch_id=1)

    def test_unbonding_hold(self, pool, scheme):
        key = keypair(scheme, 1).public_key
        pool.bond(key, 500)
        release = pool.request_unbond(key, 200, now=0.0)
        assert release == GuestConfig().unbonding_seconds
        assert pool.withdraw(key, now=release - 1) == 0
        assert pool.withdraw(key, now=release) == 200
        assert pool.stake_of(key) == 300

    def test_cannot_unbond_more_than_bonded(self, pool, scheme):
        key = keypair(scheme, 1).public_key
        pool.bond(key, 100)
        with pytest.raises(StakeError):
            pool.request_unbond(key, 200, now=0.0)

    def test_slash_hits_unbonding_stake_too(self, pool, scheme):
        """§IV holds stake for a week after exit precisely so slashing
        still bites during the hold."""
        key = keypair(scheme, 1).public_key
        pool.bond(key, 1000)
        pool.request_unbond(key, 400, now=0.0)
        slashed = pool.slash(key, Fraction(1, 2))
        assert slashed == 500  # half of 600 bonded + half of 400 unbonding
        assert pool.stake_of(key) == 300
        assert pool.withdraw(key, now=1e9) == 200

    def test_slash_unknown_is_zero(self, pool, scheme):
        assert pool.slash(keypair(scheme, 9).public_key) == 0

    def test_remove_blocks_future_selection(self, pool, scheme):
        good, bad = keypair(scheme, 1).public_key, keypair(scheme, 2).public_key
        pool.bond(good, 500)
        pool.bond(bad, 900)
        pool.remove(bad)
        epoch = pool.select_epoch(epoch_id=1)
        assert not epoch.is_validator(bad)
        assert epoch.is_validator(good)

    def test_selection_deterministic_on_ties(self, pool, scheme):
        keys = sorted(
            (keypair(scheme, i).public_key for i in range(1, 6)), key=bytes,
        )
        for key in keys:
            pool.bond(key, 100)
        epoch = pool.select_epoch(epoch_id=1)
        assert set(epoch.validators) == set(keys[:3])


class TestReleaseAll:
    """§VI-A's self-destruction primitive at the pool level."""

    @pytest.fixture
    def pool(self):
        return StakingPool(GuestConfig(min_stake_lamports=100,
                                       unbonding_seconds=1_000.0))

    def test_bonded_stake_matures_immediately(self, pool, scheme):
        key = keypair(scheme, 1).public_key
        pool.bond(key, 700)
        released = pool.release_all(now=50.0)
        assert released == 700
        assert pool.stake_of(key) == 0
        assert pool.withdraw(key, now=50.0) == 700

    def test_unbonding_holds_cut_short(self, pool, scheme):
        key = keypair(scheme, 1).public_key
        pool.bond(key, 500)
        pool.request_unbond(key, 200, now=0.0)  # would release at 1000
        released = pool.release_all(now=10.0)
        assert released == 500  # 300 bonded + 200 still-held unbonding
        assert pool.withdraw(key, now=10.0) == 500

    def test_already_matured_not_double_counted(self, pool, scheme):
        key = keypair(scheme, 1).public_key
        pool.bond(key, 500)
        pool.request_unbond(key, 200, now=0.0)
        released = pool.release_all(now=2_000.0)  # the 200 matured already
        assert released == 300
        assert pool.withdraw(key, now=2_000.0) == 500

    def test_release_all_across_candidates(self, pool, scheme):
        keys = [keypair(scheme, i).public_key for i in range(1, 4)]
        for key in keys:
            pool.bond(key, 100)
        assert pool.release_all(now=0.0) == 300
        for key in keys:
            assert pool.withdrawable(key, now=0.0) == 100


class TestSlashFractions:
    def test_full_slash(self, scheme):
        pool = StakingPool(GuestConfig(min_stake_lamports=1))
        key = keypair(scheme, 1).public_key
        pool.bond(key, 999)
        assert pool.slash(key, Fraction(1, 1)) == 999
        assert pool.stake_of(key) == 0

    def test_small_fraction_rounds_down(self, scheme):
        pool = StakingPool(GuestConfig(min_stake_lamports=1))
        key = keypair(scheme, 1).public_key
        pool.bond(key, 10)
        assert pool.slash(key, Fraction(1, 3)) == 3
        assert pool.stake_of(key) == 7

    def test_slashed_total_accumulates(self, scheme):
        pool = StakingPool(GuestConfig(min_stake_lamports=1))
        a, b = keypair(scheme, 1).public_key, keypair(scheme, 2).public_key
        pool.bond(a, 100)
        pool.bond(b, 200)
        pool.slash(a)
        pool.slash(b)
        assert pool.slashed_total == 150  # default half each
