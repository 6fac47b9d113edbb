"""Unit tests for both light clients and the chunked-update planner."""

import dataclasses
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import Hash, hash_concat
from repro.crypto.simsig import SimSigScheme
from repro.encoding import Reader, encode_varint
from repro.errors import ClientError, EquivocationError, EvidenceError
from repro.guest.block import GuestBlockHeader
from repro.guest.epoch import Epoch
from repro.lightclient.chunked import (
    plan_paper_update,
    plan_update_chunks,
    quorum_prefix,
    read_staged_update,
    signatures_per_transaction,
    usable_chunk_bytes,
)
from repro.lightclient.guest_client import GuestClientUpdate, GuestLightClient
from repro.lightclient.tendermint import (
    CometHeader,
    Commit,
    LightClientUpdate,
    TendermintLightClient,
    ValidatorSet,
)
from repro.units import MAX_TRANSACTION_BYTES


@pytest.fixture
def scheme():
    return SimSigScheme()


def make_keys(scheme, count, salt=0):
    return [
        scheme.keypair_from_seed(bytes([salt]) + i.to_bytes(4, "big") + bytes(27))
        for i in range(count)
    ]


#: A validator set keeps its digest and power map once derived
#: (``repro.derive``).  The refusals below run both ways: no verdict may
#: depend on whether a set had been asked for them before.
COLD_AND_WARM = (False, True)


def as_built(valset, warm):
    """``valset`` as a fresh instance with nothing derived yet, or
    (``warm``) with its digest and power map already cached."""
    fresh = ValidatorSet(members=valset.members)
    if warm:
        fresh.canonical_hash()
        fresh.power_map()
    return fresh


def reference_hash(valset):
    """The validator-set digest written out, as a light client on
    another chain computes it."""
    parts = [b"valset"]
    for public_key, power in valset.members:
        parts += [bytes(public_key), power.to_bytes(8, "big")]
    return hash_concat(*parts)


# ---------------------------------------------------------------------------
# Guest light client (what the counterparty runs)
# ---------------------------------------------------------------------------

class TestGuestLightClient:
    def setup_epoch(self, scheme, count=4, stake=100):
        keys = make_keys(scheme, count)
        validators = {kp.public_key: stake for kp in keys}
        total = stake * count
        epoch = Epoch(epoch_id=0, validators=validators, quorum_stake=total * 2 // 3 + 1)
        return keys, epoch

    def make_header(self, epoch, height=1, root=None, **overrides):
        defaults = dict(
            height=height,
            prev_hash=Hash.zero(),
            timestamp=50.0,
            host_slot=125,
            state_root=root or Hash.of(b"state"),
            epoch_id=epoch.epoch_id,
            epoch_hash=epoch.canonical_hash(),
        )
        defaults.update(overrides)
        return GuestBlockHeader(**defaults)

    def signed_update(self, keys, epoch, header, signers=None, **kw):
        message = header.sign_message()
        chosen = keys if signers is None else signers
        return GuestClientUpdate(
            header=header,
            signatures={kp.public_key: kp.sign(message) for kp in chosen},
            **kw,
        )

    def test_quorum_update_accepted(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        client.update(self.signed_update(keys, epoch, header))
        assert client.latest_height() == 1
        assert client.consensus_root(1) == header.state_root
        assert client.consensus_timestamp(1) == 50.0

    def test_insufficient_stake_rejected(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        with pytest.raises(ClientError):
            client.update(self.signed_update(keys, epoch, header, signers=keys[:2]))

    def test_forged_signature_ignored(self, scheme):
        keys, epoch = self.setup_epoch(scheme, count=3)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        update = self.signed_update(keys, epoch, header, signers=keys[:2])
        # Add a signature by the third validator — over the wrong message.
        bogus = dict(update.signatures)
        bogus[keys[2].public_key] = keys[2].sign(b"something else")
        with pytest.raises(ClientError):
            client.update(GuestClientUpdate(header=header, signatures=bogus))

    def test_non_validator_signatures_ignored(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        outsiders = make_keys(scheme, 4, salt=9)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        with pytest.raises(ClientError):
            client.update(self.signed_update(outsiders, epoch, header))

    def rotated_epoch(self, scheme, keys, epoch_id, keep=3, fresh=2, salt=5):
        """A successor epoch sharing ``keep`` members with the old one."""
        new_keys = keys[:keep] + make_keys(scheme, fresh, salt=salt)
        return new_keys, Epoch(
            epoch_id=epoch_id,
            validators={kp.public_key: 100 for kp in new_keys},
            quorum_stake=100 * len(new_keys) * 2 // 3 + 1,
        )

    def test_epoch_rotation_requires_new_set(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch1 = self.rotated_epoch(scheme, keys, epoch_id=1)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch1, height=5, epoch_id=1,
                                  epoch_hash=epoch1.canonical_hash())
        with pytest.raises(ClientError):
            client.update(self.signed_update(new_keys, epoch1, header))
        client.update(self.signed_update(new_keys, epoch1, header, new_epoch=epoch1))
        assert client.epoch.epoch_id == 1

    def test_epoch_skipping_allowed_with_overlap(self, scheme):
        """Alg. 2 only relays blocks with content, so a client can miss
        whole epochs; a later epoch is adopted when the set is supplied
        and its signers overlap the trusted epoch by more than 1/3."""
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch5 = self.rotated_epoch(scheme, keys, epoch_id=5)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch5, epoch_id=5,
                                  epoch_hash=epoch5.canonical_hash())
        client.update(self.signed_update(new_keys, epoch5, header, new_epoch=epoch5))
        assert client.epoch.epoch_id == 5

    def test_epoch_takeover_without_overlap_rejected(self, scheme):
        """The trust rule: an epoch signed by a completely disjoint set
        (a fabricated takeover) is rejected even with a valid quorum of
        its own stake."""
        keys, epoch0 = self.setup_epoch(scheme)
        imposters = make_keys(scheme, 4, salt=7)
        fake = Epoch(
            epoch_id=1,
            validators={kp.public_key: 100 for kp in imposters},
            quorum_stake=400 * 2 // 3 + 1,
        )
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(fake, epoch_id=1,
                                  epoch_hash=fake.canonical_hash())
        with pytest.raises(ClientError, match="1/3"):
            client.update(self.signed_update(imposters, fake, header, new_epoch=fake))

    def test_older_epoch_rejected(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch2 = self.rotated_epoch(scheme, keys, epoch_id=2)
        client = GuestLightClient(scheme, epoch0)
        header2 = self.make_header(epoch2, height=9, epoch_id=2,
                                   epoch_hash=epoch2.canonical_hash())
        client.update(self.signed_update(new_keys, epoch2, header2, new_epoch=epoch2))
        stale = self.make_header(epoch0, height=3, epoch_id=0,
                                 epoch_hash=epoch0.canonical_hash())
        with pytest.raises(ClientError, match="older"):
            client.update(self.signed_update(keys, epoch0, stale))

    def test_epoch_id_mismatch_with_supplied_set_rejected(self, scheme):
        keys, epoch0 = self.setup_epoch(scheme)
        new_keys, epoch2 = self.rotated_epoch(scheme, keys, epoch_id=2)
        client = GuestLightClient(scheme, epoch0)
        header = self.make_header(epoch2, epoch_id=3,
                                  epoch_hash=epoch2.canonical_hash())
        with pytest.raises(ClientError):
            client.update(self.signed_update(new_keys, epoch2, header, new_epoch=epoch2))

    def test_conflicting_headers_freeze_client(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header_a = self.make_header(epoch, root=Hash.of(b"a"))
        header_b = self.make_header(epoch, root=Hash.of(b"b"))
        client.update(self.signed_update(keys, epoch, header_a))
        with pytest.raises(EvidenceError):
            client.update(self.signed_update(keys, epoch, header_b))
        assert client.frozen

    def test_misbehaviour_submission(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header_a = self.make_header(epoch, root=Hash.of(b"a"))
        header_b = self.make_header(epoch, root=Hash.of(b"b"))
        client.submit_misbehaviour(
            self.signed_update(keys, epoch, header_a),
            self.signed_update(keys, epoch, header_b),
        )
        assert client.frozen

    def test_misbehaviour_same_header_rejected(self, scheme):
        keys, epoch = self.setup_epoch(scheme)
        client = GuestLightClient(scheme, epoch)
        header = self.make_header(epoch)
        update = self.signed_update(keys, epoch, header)
        with pytest.raises(EvidenceError):
            client.submit_misbehaviour(update, update)
        assert not client.frozen


# ---------------------------------------------------------------------------
# Tendermint light client (what the Guest Contract runs)
# ---------------------------------------------------------------------------

class TestTendermintLightClient:
    def setup_chain(self, scheme, count=10):
        keys = make_keys(scheme, count)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        return keys, valset

    def make_update(self, keys, valset, height=1, root=None, signers=None,
                    chain_id="picasso-1"):
        header = CometHeader(
            chain_id=chain_id,
            height=height,
            time=float(height * 6),
            app_hash=root or Hash.of(b"app"),
            validators_hash=valset.canonical_hash(),
            next_validators_hash=valset.canonical_hash(),
        )
        message = header.sign_bytes()
        chosen = keys if signers is None else signers
        commit = Commit(signatures=tuple(
            (kp.public_key, kp.sign(message)) for kp in chosen
        ))
        return LightClientUpdate(header=header, commit=commit, validator_set=valset)

    def test_honest_update_accepted(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        update = self.make_update(keys, valset)
        client.update(update, scheme)
        assert client.latest_height() == 1
        assert client.consensus_root(1) == update.header.app_hash

    def test_two_thirds_power_boundary(self, scheme):
        keys, valset = self.setup_chain(scheme, count=9)
        client = TendermintLightClient("picasso-1", valset)
        exactly_two_thirds = self.make_update(keys, valset, signers=keys[:6])
        with pytest.raises(ClientError):
            client.update(exactly_two_thirds, scheme)  # needs strictly more
        client.update(self.make_update(keys, valset, signers=keys[:7]), scheme)

    def test_wrong_chain_id_rejected(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        with pytest.raises(ClientError):
            client.update(self.make_update(keys, valset, chain_id="evil-1"), scheme)

    def test_unknown_valset_must_be_supplied(self, scheme):
        """Validator-power churn rotates the set hash: updates for the
        churned set must carry it (and pass the trust rule, which they
        do — same keys, new powers)."""
        keys, valset = self.setup_chain(scheme)
        churned = ValidatorSet(members=(
            (keys[0].public_key, 150),
        ) + valset.members[1:])
        client = TendermintLightClient("picasso-1", valset)
        update = self.make_update(keys, churned)
        stripped = LightClientUpdate(header=update.header, commit=update.commit)
        with pytest.raises(ClientError):
            client.update(stripped, scheme)
        client.update(update, scheme)  # with the set supplied: fine
        assert client.latest_height() == 1

    def test_imposter_valset_rejected_by_trust_rule(self, scheme):
        """An attacker forging a self-consistent header + validator set
        (signed by keys it controls) must fail the >1/3-of-trusted-power
        overlap condition."""
        keys, valset = self.setup_chain(scheme)
        imposter_keys = make_keys(scheme, 10, salt=4)
        for warm in COLD_AND_WARM:
            imposter = as_built(ValidatorSet(members=tuple(
                (kp.public_key, 100) for kp in imposter_keys)), warm)
            client = TendermintLightClient("picasso-1", as_built(valset, warm))
            forged = self.make_update(imposter_keys, imposter)
            with pytest.raises(ClientError):
                client.update(forged, scheme)

    def test_supplied_set_must_match_header_hash(self, scheme):
        keys, valset = self.setup_chain(scheme)
        other_keys = make_keys(scheme, 10, salt=4)
        other = ValidatorSet(members=tuple((kp.public_key, 100) for kp in other_keys))
        update = self.make_update(other_keys, other)
        for warm in COLD_AND_WARM:
            client = TendermintLightClient("picasso-1", as_built(valset, warm))
            # Header commits to `other`; supplying `valset` must be refused.
            mismatched = LightClientUpdate(
                header=update.header, commit=update.commit,
                validator_set=as_built(valset, warm))
            with pytest.raises(ClientError):
                client.update(mismatched, scheme)

    def test_trust_on_first_use_with_empty_genesis(self, scheme):
        keys, valset = self.setup_chain(scheme)
        imposter_keys = make_keys(scheme, 10, salt=4)
        for warm in COLD_AND_WARM:
            client = TendermintLightClient("picasso-1", ValidatorSet(members=()))
            client.update(self.make_update(keys, as_built(valset, warm)), scheme)
            assert client.latest_height() == 1
            # After TOFU the trust rule is armed: an unrelated set now fails.
            imposter = as_built(ValidatorSet(members=tuple(
                (kp.public_key, 100) for kp in imposter_keys)), warm)
            with pytest.raises(ClientError):
                client.update(
                    self.make_update(imposter_keys, imposter, height=2), scheme)

    def test_conflicting_app_hash_freezes(self, scheme):
        keys, valset = self.setup_chain(scheme)
        client = TendermintLightClient("picasso-1", valset)
        client.update(self.make_update(keys, valset, root=Hash.of(b"x")), scheme)
        with pytest.raises(ClientError):
            client.update(self.make_update(keys, valset, root=Hash.of(b"y")), scheme)
        assert client.frozen

    def test_update_serialization_roundtrip(self, scheme):
        keys, valset = self.setup_chain(scheme)
        update = self.make_update(keys, valset)
        restored = LightClientUpdate.from_bytes(update.to_bytes())
        assert restored == update


# ---------------------------------------------------------------------------
# Chunk planning (Fig. 4's transaction counts)
# ---------------------------------------------------------------------------

PLANNERS = (plan_update_chunks, plan_paper_update)


def comet_update(keys, valset, signers=None, height=10, root=b"app"):
    """An update for ``valset`` signed by ``signers`` (default: all)."""
    header = CometHeader(
        chain_id="picasso-1", height=height, time=60.0,
        app_hash=Hash.of(root),
        validators_hash=valset.canonical_hash(),
        next_validators_hash=valset.canonical_hash(),
    )
    message = header.sign_bytes()
    commit = Commit(signatures=tuple(
        (kp.public_key, kp.sign(message))
        for kp in (keys if signers is None else signers)
    ))
    return LightClientUpdate(header=header, commit=commit, validator_set=valset)


def staged_bytes(plan) -> bytes:
    return b"".join(plan.data_chunks)


def staged_kind(plan) -> int:
    """0: the whole set was staged; 1: a delta."""
    return staged_kind_of(staged_bytes(plan))


def staged_kind_of(staged: bytes) -> int:
    return staged[4 + int.from_bytes(staged[:4], "big") + 4]


class TestChunkPlanning:
    def plan_for(self, scheme, validators, participation=1.0, trusted=None,
                 planner=plan_paper_update):
        keys = make_keys(scheme, validators)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        update = comet_update(
            keys, valset, signers=keys[:round(validators * participation)])
        return planner(update, trusted)

    def test_every_chunk_fits_a_transaction(self, scheme):
        for planner in PLANNERS:
            plan = self.plan_for(scheme, validators=190, planner=planner)
            for chunk in plan.data_chunks:
                assert len(chunk) <= usable_chunk_bytes() < MAX_TRANSACTION_BYTES

    def test_signature_batches_fit(self, scheme):
        for planner in PLANNERS:
            plan = self.plan_for(scheme, validators=190, planner=planner)
            per_tx = signatures_per_transaction(len(plan.sign_message))
            assert all(len(batch) <= per_tx for batch in plan.signature_batches)

    def test_transaction_count_in_paper_range(self, scheme):
        """Fig. 4: ~36.5 transactions per update for a Picasso-sized
        validator set, shipped whole as the deployment did.  The count
        must emerge from byte arithmetic."""
        plan = self.plan_for(scheme, validators=190, participation=0.85)
        assert 28 <= plan.transaction_count <= 45

    def test_known_valset_shrinks_update(self, scheme):
        """A set the client already trusts is named, not re-uploaded:
        the zero-change delta, under either plan."""
        keys = make_keys(scheme, 190)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        for planner in PLANNERS:
            full = self.plan_for(scheme, validators=190, planner=planner)
            slim = self.plan_for(scheme, validators=190, trusted=valset,
                                 planner=planner)
            assert (staged_kind(full), staged_kind(slim)) == (0, 1)
            assert len(slim.data_chunks) == 1 < len(full.data_chunks)

    def test_signature_count_preserved(self, scheme):
        """The paper plan ships the commit as it is."""
        plan = self.plan_for(scheme, validators=100, participation=0.9)
        assert plan.signature_count == 90

    def test_default_plan_ships_only_the_quorum(self, scheme):
        """Equal powers: 67 of 100 is the first count above 2/3."""
        plan = self.plan_for(scheme, validators=100, participation=0.9,
                             planner=plan_update_chunks)
        assert plan.signature_count == 67

    def test_more_validators_more_transactions(self, scheme):
        for planner in PLANNERS:
            small = self.plan_for(scheme, validators=50, planner=planner)
            large = self.plan_for(scheme, validators=200, planner=planner)
            assert large.transaction_count > small.transaction_count

    def test_chunks_reassemble(self, scheme):
        keys = make_keys(scheme, 50)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        update = comet_update(keys, valset)
        for planner in PLANNERS:
            header, staged_set, hashed = read_staged_update(
                staged_bytes(planner(update)), lambda valset_hash: None)
            assert (header, staged_set) == (update.header, valset)
            assert hashed == len(staged_bytes(planner(update)))

    def test_update_without_its_set_needs_it_trusted(self, scheme):
        keys = make_keys(scheme, 8)
        valset = ValidatorSet(members=tuple((kp.public_key, 100) for kp in keys))
        full = comet_update(keys, valset)
        bare = LightClientUpdate(header=full.header, commit=full.commit)
        other = ValidatorSet(members=valset.members[:-1])
        for planner in PLANNERS:
            assert planner(bare, valset) == planner(full, valset)
            for unknown in (None, other):
                with pytest.raises(ClientError, match="none supplied"):
                    planner(bare, unknown)


# ---------------------------------------------------------------------------
# The default plan: power-ranked quorum prefix + validator-set delta
# ---------------------------------------------------------------------------

SCHEME = SimSigScheme()   # SimSig verifies against the keys it minted
POOL = make_keys(SCHEME, 24, salt=9)
STRANGERS = make_keys(SCHEME, 3, salt=10)


@st.composite
def churned_chains(draw):
    """(keys, valset, trusted, signers): a header's validator set with a
    random power skew (some members at zero power), the set the client
    trusts — the same keys with some powers churned, or with members
    joined/left — and a commit by members holding more than 2/3 of the
    header's power plus zero-power members and strangers."""
    count = draw(st.integers(4, len(POOL)))
    keys = POOL[:count]
    powers = draw(st.lists(
        st.one_of(st.integers(1, 50), st.integers(1, 10 ** 6), st.just(0)),
        min_size=count, max_size=count))
    assume(sum(powers) > 0)
    valset = ValidatorSet(members=tuple(
        (kp.public_key, power) for kp, power in zip(keys, powers)))

    trusted_members = [
        (public_key, draw(st.one_of(st.just(power), st.integers(0, 10 ** 6))))
        for public_key, power in valset.members]
    left = draw(st.integers(0, count // 3))
    joined = draw(st.integers(0, 2))
    trusted_members = trusted_members[left:] + [
        (kp.public_key, draw(st.integers(1, 10 ** 6)))
        for kp in POOL[count:count + joined]]
    trusted = draw(st.one_of(
        st.none(), st.just(ValidatorSet(members=tuple(trusted_members)))))

    order = draw(st.permutations(range(count)))
    signers, signed = [], 0
    for index in order:
        signers.append(keys[index])
        signed += powers[index]
        if signed * 3 > sum(powers) * 2 and draw(st.booleans()):
            break
    assume(signed * 3 > sum(powers) * 2)
    signers += draw(st.lists(st.sampled_from(STRANGERS), max_size=2, unique=True))
    signers = draw(st.permutations(signers))
    return keys, valset, trusted, signers


def client_trusting(trusted):
    return TendermintLightClient(
        "picasso-1", trusted if trusted is not None else ValidatorSet(members=()))


def adopt(client, update, entries):
    signatures = dict(entries)
    client.apply_verified(update.header, set(signatures), update.validator_set,
                          signatures=signatures)


class TestQuorumPrefix:
    @settings(max_examples=150, deadline=None)
    @given(churned_chains())
    def test_prefix_is_accepted_minimal_and_counts_members_only(self, chain):
        keys, valset, trusted, signers = chain
        update = comet_update(keys, valset, signers=signers)
        prefix = quorum_prefix(update.commit.signatures, valset, trusted)
        try:
            # The reference: every signature checked, members only.
            client_trusting(trusted).update(update, SCHEME)
        except ClientError:
            # Too little of the trusted set signed: nothing shorter can
            # pass either, so the commit goes out whole.
            assert prefix == update.commit.signatures
            return
        adopt(client_trusting(trusted), update, prefix)
        with pytest.raises(ClientError):
            adopt(client_trusting(trusted), update, prefix[:-1])
        shipped = [public_key for public_key, _ in prefix]
        assert len(set(shipped)) == len(shipped)
        assert all(valset.power_of(public_key) > 0 for public_key in shipped)
        assert set(prefix) <= set(update.commit.signatures)
        # Ranked: nobody left out outweighs somebody shipped.
        left_out = [valset.power_of(public_key)
                    for public_key, _ in update.commit.signatures
                    if public_key not in shipped]
        assert max(left_out, default=0) <= min(map(valset.power_of, shipped))

    def test_repeated_and_powerless_signers_never_count(self, scheme):
        keys = make_keys(scheme, 6)
        valset = ValidatorSet(members=tuple(
            (kp.public_key, power)
            for kp, power in zip(keys, (0, 40, 30, 20, 10, 0))))
        update = comet_update(
            keys, valset,
            signers=[keys[0], keys[1], keys[1], STRANGERS[0], keys[3], keys[2]])
        prefix = quorum_prefix(update.commit.signatures, valset, None)
        assert [public_key for public_key, _ in prefix] == [
            keys[1].public_key, keys[2].public_key]   # 70 of 100
        # Without keys[2] no quorum exists: the commit goes out whole.
        short = comet_update(keys, valset,
                             signers=[keys[0], keys[1], keys[1], keys[3]])
        assert quorum_prefix(short.commit.signatures, valset, None) \
            == short.commit.signatures

    @settings(max_examples=60, deadline=None)
    @given(churned_chains(), churned_chains())
    def test_conflicting_prefixes_still_name_a_third(self, first, second):
        """Two quorums of one set intersect in more than 1/3 of it however
        each was trimmed: the signatures retained per signer are enough
        for an accountability proof."""
        keys, valset, _, signers = first
        other_keys, other_set, _, other_signers = second
        assume(len(other_keys) >= len(keys))
        # The second draw only lends a participation pattern over the
        # first draw's set.
        members = {kp.public_key for kp in keys}
        signed = [kp for kp in other_signers if kp.public_key in members]
        assume(sum(valset.power_of(kp.public_key) for kp in set(signed)) * 3
               > valset.total_power * 2)
        client = client_trusting(valset)
        one = comet_update(keys, valset, signers=signers, root=b"one")
        two = comet_update(keys, valset, signers=signed, root=b"two")
        adopt(client, one, quorum_prefix(one.commit.signatures, valset, valset))
        with pytest.raises(EquivocationError) as raised:
            adopt(client, two,
                  quorum_prefix(two.commit.signatures, valset, valset))
        assert client.frozen
        offenders = client.verify_accountability(raised.value.proof, SCHEME)
        assert sum(map(valset.power_of, offenders)) * 3 > valset.total_power


class TestDerivedOnce:
    """``ValidatorSet.canonical_hash`` / ``power_map`` are kept on the
    frozen instance: the cache changes no value and never outlives the
    members it was derived from."""

    @settings(max_examples=100, deadline=None)
    @given(churned_chains())
    def test_a_warm_set_is_the_cold_set(self, chain):
        _, valset, _, _ = chain
        warm, cold = as_built(valset, True), as_built(valset, False)
        assert vars(cold).keys() == {"members"} < vars(warm).keys()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) and warm.to_bytes() == cold.to_bytes()
        assert (warm.canonical_hash() == reference_hash(valset)
                == cold.canonical_hash())
        assert warm.canonical_hash() is warm.canonical_hash()
        assert warm.power_map() == dict(valset.members) == cold.power_map()

    @settings(max_examples=100, deadline=None)
    @given(churned_chains(), st.data())
    def test_a_changed_copy_starts_cold(self, chain, data):
        """Same length, same keys, one power moved: the shape of every
        churn, and the copy a stale or shape-keyed cache would get wrong."""
        _, valset, _, _ = chain
        warm = as_built(valset, True)
        index = data.draw(st.integers(0, len(valset) - 1))
        key, power = valset.members[index]
        members = (valset.members[:index] + ((key, power + 1),)
                   + valset.members[index + 1:])
        for changed in (
                dataclasses.replace(warm, members=members),
                ValidatorSet.read_from(
                    Reader(ValidatorSet(members=members).to_bytes()))):
            assert vars(changed).keys() == {"members"}
            assert (changed.canonical_hash() == reference_hash(changed)
                    != warm.canonical_hash())
            assert changed.power_of(key) == power + 1 == warm.power_of(key) + 1
        assert warm.canonical_hash() == reference_hash(valset)

    @settings(max_examples=150, deadline=None)
    @given(churned_chains(), st.booleans(), st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2 ** 64 - 1),
                  st.booleans()), min_size=1, max_size=8))
    def test_a_churned_set_is_handed_the_preimage_not_a_digest(
            self, chain, warm, changes):
        """``replacing_power`` patches 8 bytes of the parent's preimage
        and hashes that: for any chain of changes the digest is the one
        the members give when framed from nothing (``reference_hash``
        spells it with ``hash_concat``), whether or not a set along the
        way was asked for its digest before it was churned again."""
        _, valset, _, _ = chain
        head = as_built(valset, warm)
        lineage = [head]
        for position, power, ask in changes:
            index = position % len(head)
            parent, head = head, head.replacing_power(index, power)
            lineage.append(head)
            assert head.members == (
                parent.members[:index]
                + ((parent.members[index][0], power),)
                + parent.members[index + 1:])
            # Moved, not copied: one preimage per lineage, at its head.
            assert [("_preimage" in vars(member)) for member in lineage] == (
                [False] * (len(lineage) - 1) + [True])
            if ask:
                assert head.canonical_hash() == reference_hash(head)
        for member in lineage:
            assert member.canonical_hash() == reference_hash(member)
        assert head == ValidatorSet(members=head.members)
        assert hash(head) == hash(ValidatorSet(members=head.members))

        # A set built any other way starts without a preimage and
        # derives the same digest from its members alone.
        for other in (ValidatorSet(members=head.members),
                      dataclasses.replace(head),
                      ValidatorSet.read_from(Reader(head.to_bytes()))):
            assert vars(other).keys() == {"members"}
            assert other.canonical_hash() == head.canonical_hash()
        # A checkpoint carries it, and the restored set churns on.
        restored = pickle.loads(pickle.dumps(head))
        assert vars(restored)["_preimage"] == vars(head)["_preimage"]
        for survivor in (restored, head):
            child = survivor.replacing_power(0, 7)
            assert child.canonical_hash() == reference_hash(child)

    def test_a_refused_change_leaves_the_parent_whole(self, scheme):
        members = tuple((kp.public_key, 5) for kp in make_keys(scheme, 3))
        parent = ValidatorSet(members=members).replacing_power(1, 6)
        for index, power, error in ((3, 1, IndexError), (-1, 1, IndexError),
                                    (0, -1, OverflowError),
                                    (0, 2 ** 64, OverflowError)):
            with pytest.raises(error):
                parent.replacing_power(index, power)
        assert "_preimage" in vars(parent)
        child = parent.replacing_power(2, 9)
        assert child.canonical_hash() == reference_hash(child)
        assert parent.canonical_hash() == reference_hash(parent)

    def test_members_must_be_a_tuple(self, scheme):
        """A list could be edited behind the cached digest."""
        members = [(kp.public_key, 1) for kp in make_keys(scheme, 2)]
        with pytest.raises(TypeError, match="must be a tuple, not list"):
            ValidatorSet(members=members)
        assert len(ValidatorSet(members=tuple(members))) == 2


class TestValidatorSetDelta:
    @settings(max_examples=150, deadline=None)
    @given(churned_chains(), st.booleans())
    def test_staged_set_round_trips_to_the_exact_hash(self, chain, warm):
        keys, valset, trusted, signers = chain
        if trusted is not None:
            trusted = as_built(trusted, warm)
        update = comet_update(keys, valset, signers=signers)
        plan = plan_update_chunks(update, trusted)
        known = {} if trusted is None else {trusted.canonical_hash(): trusted}
        header, rebuilt, hashed = read_staged_update(
            staged_bytes(plan), known.get)
        assert header == update.header
        assert rebuilt == valset
        # Rebuilt on chain = a new set: nothing derived rides over from
        # the base, and its digest comes from its own members.
        assert vars(rebuilt).keys() == {"members"}
        assert (rebuilt.canonical_hash() == reference_hash(rebuilt)
                == header.validators_hash)
        whole = staged_bytes(plan_update_chunks(update, None))
        if staged_kind(plan):
            assert len(staged_bytes(plan)) < len(whole)
            assert hashed == len(staged_bytes(plan)) + 40 * len(valset)
        else:
            assert staged_bytes(plan) == whole and hashed == len(whole)

    def chain(self, scheme, count=5):
        keys = make_keys(scheme, count)
        base = ValidatorSet(members=tuple(
            (kp.public_key, 1_000 * (index + 1))
            for index, kp in enumerate(keys)))
        return keys, base

    def churn(self, base, changes):
        members = list(base.members)
        for index, power in changes.items():
            members[index] = (members[index][0], power)
        return ValidatorSet(members=tuple(members))

    def staged(self, header, base_hash, pairs, trailing=b""):
        """A hand-built delta buffer: the wire format, written out."""
        section = b"\x01" + bytes(base_hash) + encode_varint(len(pairs))
        for index, power in pairs:
            section += encode_varint(index) + encode_varint(power)
        section += trailing
        header_bytes = header.to_bytes()
        return (len(header_bytes).to_bytes(4, "big") + header_bytes
                + len(section).to_bytes(4, "big") + section)

    def test_delta_is_what_the_planner_stages(self, scheme):
        keys, base = self.chain(scheme)
        valset = self.churn(base, {1: 2_500, 4: 7})
        update = comet_update(keys, valset)
        plan = plan_update_chunks(update, base)
        assert staged_bytes(plan) == self.staged(
            update.header, base.canonical_hash(), [(1, 2_500), (4, 7)])
        assert read_staged_update(
            staged_bytes(plan), {base.canonical_hash(): base}.get,
        )[1] == valset

    def test_unknown_base_hash_refused(self, scheme):
        keys, base = self.chain(scheme)
        update = comet_update(keys, self.churn(base, {0: 5}))
        staged = self.staged(update.header, base.canonical_hash(), [(0, 5)])
        for warm in COLD_AND_WARM:
            # The client knows a set of the same keys, not this base.
            client = client_trusting(as_built(self.churn(base, {0: 6}), warm))
            with pytest.raises(ClientError, match="unknown base"):
                read_staged_update(staged, client.known_validator_set)

    def test_index_out_of_range_refused(self, scheme):
        keys, base = self.chain(scheme)
        update = comet_update(keys, base)
        staged = self.staged(update.header, base.canonical_hash(), [(5, 1)])
        with pytest.raises(ClientError, match="outside a set of 5"):
            read_staged_update(staged, {base.canonical_hash(): base}.get)

    def test_duplicate_index_refused(self, scheme):
        keys, base = self.chain(scheme)
        update = comet_update(keys, base)
        for pairs in ([(2, 1), (2, 9)], [(3, 1), (2, 9)]):
            staged = self.staged(update.header, base.canonical_hash(), pairs)
            with pytest.raises(ClientError, match="strictly increase"):
                read_staged_update(staged, {base.canonical_hash(): base}.get)

    def test_rebuilt_set_must_hash_to_the_header(self, scheme):
        """The delta is a compression of the upload, never an authority:
        a wrong one rebuilds a set ``apply_verified`` refuses — as it
        refuses a wrong set uploaded whole."""
        keys, base = self.chain(scheme)
        update = comet_update(keys, self.churn(base, {0: 5}))
        wrong = self.churn(base, {0: 6})
        for warm in COLD_AND_WARM:
            client = client_trusting(as_built(base, warm))
            as_delta = self.staged(update.header, base.canonical_hash(), [(0, 6)])
            whole = staged_bytes(plan_update_chunks(LightClientUpdate(
                header=update.header, commit=update.commit,
                validator_set=as_built(wrong, warm))))
            assert (staged_kind_of(as_delta), staged_kind_of(whole)) == (1, 0)
            for staged in (as_delta, whole):
                header, staged_set, _ = read_staged_update(
                    staged, client.known_validator_set)
                assert staged_set == wrong
                assert staged_set.canonical_hash() == reference_hash(wrong)
                assert staged_set.canonical_hash() not in (
                    base.canonical_hash(), header.validators_hash)
                with pytest.raises(ClientError, match="does not match the header"):
                    client.apply_verified(
                        header, {kp.public_key for kp in keys}, staged_set)
            assert client.latest_height() == 0

    def test_trailing_bytes_refused(self, scheme):
        keys, base = self.chain(scheme)
        update = comet_update(keys, self.churn(base, {0: 5}))
        known = {base.canonical_hash(): base}.get
        inside = self.staged(update.header, base.canonical_hash(), [(0, 5)],
                             trailing=b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_staged_update(inside, known)
        after = self.staged(update.header, base.canonical_hash(), [(0, 5)])
        with pytest.raises(ValueError, match="trailing"):
            read_staged_update(after + b"\x00", known)
        with pytest.raises(ClientError, match="kind 7"):
            read_staged_update(
                after[:4 + int.from_bytes(after[:4], "big") + 4] + b"\x07"
                + after[4 + int.from_bytes(after[:4], "big") + 5:], known)

    def test_first_use_falls_back_to_the_whole_set(self, scheme):
        keys, base = self.chain(scheme)
        assert staged_kind(plan_update_chunks(comet_update(keys, base))) == 0

    def test_membership_change_falls_back_to_the_whole_set(self, scheme):
        keys, base = self.chain(scheme)
        update = comet_update(keys, base)
        left = ValidatorSet(members=base.members[1:])
        swapped = ValidatorSet(members=base.members[1:] + base.members[:1])
        for trusted in (left, swapped):
            assert staged_kind(plan_update_chunks(update, trusted)) == 0

    def test_delta_no_smaller_falls_back_to_the_whole_set(self, scheme):
        """One member, power changed: naming the base costs its 32-byte
        hash, as much as the one key the whole set carries."""
        keys, base = self.chain(scheme, count=1)
        update = comet_update(keys, self.churn(base, {0: 5}))
        assert staged_kind(plan_update_chunks(update, base)) == 0
