"""Unit tests for the client-side API types and sizing decisions."""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest.api import DeliveryResult, LcUpdateResult
from repro.guest.config import GuestConfig
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
