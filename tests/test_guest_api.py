"""Unit tests for the client-side API types and sizing decisions."""

import pytest

from repro import Deployment, DeploymentConfig
from repro.fabric import GuestSpec, LinkSpec, TopologyConfig, build_fabric
from repro.guest import instructions as ins
from repro.guest.api import DeliveryResult, LcUpdateResult
from repro.guest.config import GuestConfig
from repro.guest.instructions import Op
from repro.ibc import commitment as paths
from repro.ibc.messages import MsgConnOpenTry, encode_handshake
from repro.relayer.updates import LC_UPDATE_PLANS
from repro.validators.profiles import simple_profiles


class TestResultTypes:
    def test_lc_update_latency(self):
        result = LcUpdateResult(
            height=5, transaction_count=36, signature_count=160,
            total_fee=1_000_000, first_tx_time=100.0, last_tx_time=124.5,
            success=True,
        )
        assert result.latency == pytest.approx(24.5)

    def test_delivery_result_fields(self):
        result = DeliveryResult(transaction_count=4, total_fee=20_000,
                                slot=77, success=False, error="boom")
        assert not result.success
        assert result.error == "boom"


KINDS = ["guest-counterparty", "guest-guest"]


def handshake_end(kind: str):
    """The guest end a handshake datagram is shipped to, its peer, and
    the prelude a datagram proven at the peer's latest finalised height
    carries: none behind a chunked client of a counterparty, one
    SIBLING_UPDATE behind a sibling client that does not hold it."""
    if kind == "guest-counterparty":
        dep = Deployment(DeploymentConfig(seed=151))
        dep.run_for(10.0)
        end, peer = dep.relayer.a, dep.relayer.b
    else:
        dep = build_fabric(TopologyConfig(
            guests=(GuestSpec("g0"), GuestSpec("g1")),
            links=(LinkSpec("g0", "g1"),), seed=151), establish=False)
        dep.run_for(10.0)
        end, peer = dep.links[0].relayer.b, dep.links[0].relayer.a
    height = peer.latest_final()
    prelude = end.updates.prelude((height,))
    assert len(prelude) == (kind == "guest-guest")
    return dep, end, peer, height, prelude


def conn_open_try(end, peer, height: int, size: int, prelude) -> MsgConnOpenTry:
    """A ConnOpenTry whose inline transaction behind ``prelude`` is
    ``size`` bytes (its claim padded to get there)."""
    connection = peer.ibc.conn_open_init(peer.client_id, end.client_id)
    proof = peer.ibc.store.prove(paths.connection_path(connection))
    for pad in range(size):
        msg = MsgConnOpenTry(
            client_id=end.client_id, counterparty_client_id=peer.client_id,
            counterparty_connection_id=connection, proof=proof,
            proof_height=height, client_state=bytes(pad))
        inline = end.api._transaction(
            *prelude, ins.handshake(encode_handshake(msg)),
            fee=end.api.default_fee)
        if inline.serialized_size() == size:
            return msg
    raise AssertionError(f"no padding makes a {size}-byte transaction")


def tapped(dep):
    """Record what reaches the host as one transaction or as a bundle."""
    singles, bundles = [], []
    submit, submit_bundle = dep.host.submit, dep.host.submit_bundle

    def watched_submit(transaction, on_result=None):
        singles.append(transaction)
        return submit(transaction, on_result=on_result)

    def watched_bundle(transactions, tip_lamports=0, on_result=None):
        bundles.append(list(transactions))
        return submit_bundle(transactions, tip_lamports=tip_lamports,
                             on_result=on_result)

    dep.host.submit, dep.host.submit_bundle = watched_submit, watched_bundle
    return singles, bundles


class TestHandshakeSizing:
    @pytest.fixture(scope="class")
    def dep(self):
        return Deployment(DeploymentConfig(
            seed=151,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4),
        ))

    def test_small_handshake_rides_inline(self, dep):
        """A proof-free datagram (conn_open_init) fits one transaction."""
        from repro.ibc.messages import MsgConnOpenInit
        results = []
        dep.relayer_api.submit_handshake(
            MsgConnOpenInit(
                client_id=dep.contract.counterparty_client_id,
                counterparty_client_id=dep.guest_client_id_on_cp,
            ),
            on_done=results.append,
        )
        dep.run_for(30.0)
        assert results and results[0].success
        assert results[0].transaction_count == 1

    def test_large_handshake_gets_chunked(self, dep):
        """A datagram carrying a deep proof is staged through chunks and
        still lands atomically (one bundle, one block)."""
        import hashlib
        from repro.ibc import commitment as paths
        from repro.ibc.messages import MsgConnOpenTry
        # A big store => a proof too large for one transaction.
        trie = dep.counterparty.ibc.store.trie
        for index in range(4_000):
            key = hashlib.sha256(b"big" + index.to_bytes(8, "big")).digest()
            trie.set(key, key)
        dep.run_for(10.0)
        conn = dep.counterparty.ibc.conn_open_init(
            dep.guest_client_id_on_cp, dep.contract.counterparty_client_id,
        )
        proof = dep.counterparty.ibc.store.prove(paths.connection_path(conn))
        msg = MsgConnOpenTry(
            client_id=dep.contract.counterparty_client_id,
            counterparty_client_id=dep.guest_client_id_on_cp,
            counterparty_connection_id=conn,
            proof=proof, proof_height=dep.counterparty.height,
        )
        from repro.ibc.messages import encode_handshake
        from repro.lightclient.chunked import usable_chunk_bytes
        assert len(encode_handshake(msg)) > usable_chunk_bytes()

        results = []
        dep.relayer_api.submit_handshake(msg, on_done=results.append)
        dep.run_for(30.0)
        assert results
        # Chunk transactions + the exec transaction in one bundle.
        assert results[0].transaction_count >= 3
        # (The try itself fails — the guest's client has no consensus for
        # that height — but the *staging machinery* is what's under test;
        # the failure must be the proof/height one, not a size error.)
        if not results[0].success:
            assert "size" not in (results[0].error or "")

    # Inline or staged is decided on the built transaction, prelude
    # included: one at the host's cap rides inline, one byte more is
    # staged with the prelude leading the bundle — for a guest client of
    # a counterparty (no prelude) and of a sibling guest (its
    # SIBLING_UPDATE).

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_datagram_at_the_cap_rides_inline(self, kind):
        dep, end, peer, height, prelude = handshake_end(kind)
        cap = dep.host.config.max_transaction_bytes
        msg = conn_open_try(end, peer, height, cap, prelude)
        singles, bundles = tapped(dep)
        end.api.submit_handshake(msg, prelude=prelude)
        assert bundles == [] and len(singles) == 1
        (transaction,) = singles
        assert transaction.serialized_size() == cap
        assert [i.data for i in transaction.instructions] == [
            *prelude, ins.handshake(encode_handshake(msg))]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_datagram_past_the_cap_is_one_bundle_prelude_first(self, kind):
        dep, end, peer, height, prelude = handshake_end(kind)
        cap = dep.host.config.max_transaction_bytes
        msg = conn_open_try(end, peer, height, cap + 1, prelude)
        singles, bundles = tapped(dep)
        results = []
        end.api.submit_handshake(msg, on_done=results.append, prelude=prelude)
        assert singles == [] and len(bundles) == 1
        (bundle,) = bundles
        assert [tx.instructions[0].data for tx in bundle[:len(prelude)]] == list(
            prelude)
        assert [tx.instructions[0].data[0] for tx in bundle[len(prelude):]] == [
            Op.CHUNK, Op.CHUNK, Op.HANDSHAKE_EXEC]
        dep.run_for(30.0)
        # Staged, preluded and run as one bundle: one result for all of
        # it (the padded claim fails the step, not the staging).
        assert len(results) == 1
        assert results[0].transaction_count == len(bundle)
        assert "size" not in (results[0].error or "")


class TestApiAccounting:
    def test_lc_update_fee_accounting_matches_receipts(self):
        dep = Deployment(DeploymentConfig(
            seed=152,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4),
        ))
        dep.run_for(30.0)
        burned_before = dep.host.total_fees_burned()
        results = []
        dep.relayer_api.submit_lc_update(
            dep.counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=results.append,
        )
        dep.run_for(120.0)
        result = results[0]
        assert result.success
        burned = dep.host.total_fees_burned() - burned_before
        # Every lamport the update cost is accounted in the result
        # (other actors pay fees too, so >=).
        assert burned >= result.total_fee
        # Base-fee decomposition: one tx signature each + one per
        # precompile-verified commit signature.
        expected = 5_000 * (result.transaction_count + result.signature_count)
        assert result.total_fee == expected
