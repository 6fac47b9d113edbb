"""Negative-path and edge-case tests for the Guest Contract's chunked
machinery, evidence handling and event payloads."""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.host.fees import BaseFee
from repro.host.transaction import Instruction, SigVerify, Transaction
from repro.validators.profiles import simple_profiles

from tests.test_guest_contract import run_tx
from tests.test_op_table import KEY, PINNED


@pytest.fixture
def dep():
    return Deployment(DeploymentConfig(
        seed=71,
        guest=GuestConfig(delta_seconds=60.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))


#: One well-formed instruction per opcode (the pinned builder calls;
#: BATCH_EXEC with its payload inline, so that no buffer is looked up).
WELL_FORMED = {name: build for name, (build, _) in PINNED.items()
               if name != "BATCH_EXEC staged"}
WELL_FORMED["EVIDENCE"] = lambda: ins.evidence(KEY, 300, b"\x07" * 32)


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_trailing_bytes_are_refused_by_every_opcode(dep, name):
    """GENERATE_BLOCK and SELF_DESTRUCT used not to look at their
    payload and the two handshake opcodes stopped reading after one
    field; the shared decoder ends every payload where its fields end."""
    receipt = run_tx(dep, WELL_FORMED[name]() + b"junk")
    assert not receipt.success
    assert "trailing bytes" in receipt.error


class TestChunkedLcUpdateGuards:
    def test_sig_batch_without_precompile_entries_rejected(self, dep):
        assert run_tx(dep, ins.chunk(5, 0, 1, b"header-ish")).success
        receipt = run_tx(dep, ins.lc_sig_batch(5))
        assert not receipt.success
        assert "no runtime-verified signatures" in receipt.error

    def test_finalize_with_incomplete_buffer_rejected(self, dep):
        """LC_FINALIZE over half a buffer adopts nothing: it is one more
        transaction of the wave, and the chunk that completes the buffer
        is the one that runs the checks (and here fails them)."""
        client = dep.contract.counterparty_client
        assert run_tx(dep, ins.chunk(6, 0, 2, b"half")).success
        assert run_tx(dep, ins.lc_finalize(6, 0)).success
        assert client.latest_height() == 0
        (buffer,) = dep.contract._buffers.values()
        assert not buffer.is_complete() and buffer.finalize_batches == 0
        receipt = run_tx(dep, ins.chunk(6, 1, 2, b"rest"))
        assert not receipt.success          # "halfrest" is no update
        assert client.latest_height() == 0 and not dep.contract._buffers

    def test_finalize_with_garbage_buffer_rejected(self, dep):
        assert run_tx(dep, ins.chunk(7, 0, 1, b"\xff" * 40)).success
        receipt = run_tx(dep, ins.lc_finalize(7, 0))
        assert not receipt.success

    def test_wrong_message_signatures_filtered_at_finalize(self, dep):
        """Signatures verified by the runtime over the *wrong* message
        must not count toward the commit power."""
        from repro.lightclient.chunked import plan_update_chunks
        dep.run_for(30.0)  # let the counterparty produce blocks
        update = dep.counterparty.light_client_update()
        plan = plan_update_chunks(update)

        buffer_id = 9_001
        for index, chunk_bytes in enumerate(plan.data_chunks):
            receipt = run_tx(dep, ins.chunk(buffer_id, index, len(plan.data_chunks), chunk_bytes))
            assert receipt.success

        # Credit signatures over a decoy message (runtime verifies them
        # fine — they are valid signatures, just not over sign-bytes).
        signer = dep.scheme.keypair_from_seed(bytes([3]) * 32)
        decoy = b"not-the-header-sign-bytes"
        entries = tuple(
            SigVerify(signer.public_key, decoy, signer.sign(decoy))
            for _ in range(3)
        )
        tx = Transaction(
            payer=dep.user,
            instructions=(Instruction(
                dep.contract.program_id, (dep.contract.state_account,),
                ins.lc_sig_batch(buffer_id),
            ),),
            fee_strategy=BaseFee(),
            sig_verifies=entries,
        )
        results = []
        dep.host.submit(tx, on_result=results.append)
        dep.run_for(30.0)
        assert results[0].success  # crediting is fine...

        receipt = run_tx(dep, ins.lc_finalize(buffer_id, 1))
        assert not receipt.success  # ...but the power check fails
        assert "signed power" in receipt.error

    @staticmethod
    def ship(dep, plan, buffer_id, order):
        """Land ``plan``'s transactions one by one: ``order`` names the
        kinds (``"chunks"``, ``"batches"``) in the order they go; returns
        the finalize receipt."""
        total = len(plan.data_chunks)
        kinds = {
            "chunks": [(ins.chunk(buffer_id, index, total, data), ())
                       for index, data in enumerate(plan.data_chunks)],
            "batches": [(ins.lc_sig_batch(buffer_id),
                         [SigVerify(public_key, plan.sign_message, signature)
                          for public_key, signature in batch])
                        for batch in plan.signature_batches],
        }
        for kind in order:
            for data, entries in kinds[kind]:
                assert run_tx(dep, data, sig_verifies=entries, wait=10.0).success
        return run_tx(dep, ins.lc_finalize(buffer_id, len(plan.signature_batches)))

    def test_sig_batch_before_any_chunk_still_finalizes(self, dep):
        """A short update's CHUNK 0 shares its submission window with the
        first signature batches and the host may order them first: the
        batch opens the buffer, the chunk then fixes its size."""
        from repro.lightclient.chunked import plan_update_chunks
        dep.run_for(30.0)
        update = dep.counterparty.light_client_update()
        plan = plan_update_chunks(update)
        assert not dep.contract._buffers
        receipt = self.ship(dep, plan, 9_100, ("batches", "chunks"))
        assert receipt.success, receipt.error
        client = dep.contract.counterparty_client
        assert client.latest_height() == update.header.height
        assert not dep.contract._buffers
        # Opened by a batch, a buffer is still nothing until chunked.
        batch = plan.signature_batches[0]
        entries = [SigVerify(public_key, plan.sign_message, signature)
                   for public_key, signature in batch]
        assert run_tx(dep, ins.lc_sig_batch(9_101), sig_verifies=entries).success
        assert run_tx(dep, ins.lc_finalize(9_101, 1)).success
        (buffer,) = dep.contract._buffers.values()
        assert (buffer.batches_seen, buffer.total_chunks) == (1, 0)
        assert client.latest_height() == update.header.height   # untouched

    def test_delta_finalize_pays_for_hashing_the_rebuilt_set(self, dep):
        from repro.host.compute import SHA256_UNITS_PER_BLOCK
        from repro.lightclient.chunked import plan_update_chunks
        client = dep.contract.counterparty_client
        dep.run_for(30.0)
        first = dep.counterparty.light_client_update()
        whole = self.ship(dep, plan_update_chunks(first), 9_200,
                          ("chunks", "batches"))
        assert whole.success, whole.error
        trusted = client.trusted_validator_set()
        assert trusted == first.validator_set

        while dep.counterparty.validator_set() == trusted:
            dep.run_for(6.0)   # until stake churn rotates the set
        dep.run_for(6.0)
        update = dep.counterparty.light_client_update()
        assert update.validator_set != trusted
        plan = plan_update_chunks(update, trusted)
        assert len(plan.data_chunks) == 1 < len(plan_update_chunks(first).data_chunks)
        delta = self.ship(dep, plan, 9_201, ("chunks", "batches"))
        assert delta.success, delta.error
        assert client.trusted_validator_set() == update.validator_set
        # A ~200-byte upload, charged as the ~7.6 kB the hash check reads.
        rebuilt_blocks = 40 * len(update.validator_set) // 32
        assert delta.compute_consumed >= SHA256_UNITS_PER_BLOCK * rebuilt_blocks
        assert delta.compute_consumed >= whole.compute_consumed

    def test_buffers_isolated_per_payer(self, dep):
        from repro.host.accounts import Address
        from repro.units import sol_to_lamports
        other = Address.derive("other-uploader")
        dep.host.airdrop(other, sol_to_lamports(10.0))
        assert run_tx(dep, ins.chunk(11, 0, 1, b"mine")).success
        # A different payer cannot execute (or steal) the first payer's
        # buffer id — ids are namespaced by owner.
        receipt = run_tx(dep, ins.recv_exec(11), payer=other)
        assert not receipt.success
        assert "unknown buffer" in receipt.error


class TestEvidenceEdgeCases:
    def test_evidence_against_unstaked_key_rejected(self, dep):
        from repro.guest.block import sign_message
        nobody = dep.scheme.keypair_from_seed(bytes([44]) * 32)
        fingerprint = b"\x01" * 32
        message = sign_message(7, fingerprint)
        signature = nobody.sign(message)
        results = []
        dep.relayer_api.submit_evidence(
            offender=nobody.public_key, height=7, fingerprint=fingerprint,
            signature=signature, message=message, on_result=results.append,
        )
        dep.run_for(30.0)
        assert not results[0].success
        assert "no stake" in results[0].error

    def test_evidence_matching_real_block_rejected(self, dep):
        """An honest signature over the real block is not an offence."""
        from repro.guest.block import sign_message
        dep.run_for(5.0)
        validator = dep.validators[0].keypair
        genesis = dep.contract.blocks[0]
        fingerprint = genesis.header.fingerprint()
        message = sign_message(0, fingerprint)
        signature = validator.sign(message)
        results = []
        dep.relayer_api.submit_evidence(
            offender=validator.public_key, height=0, fingerprint=fingerprint,
            signature=signature, message=message, on_result=results.append,
        )
        dep.run_for(30.0)
        assert not results[0].success
        assert "no offence" in results[0].error

    def test_fisherman_reward_paid_from_treasury(self, dep):
        from repro.guest.block import sign_message
        offender = dep.validators[1].keypair
        fingerprint = b"\x77" * 32
        message = sign_message(3, fingerprint)
        signature = offender.sign(message)
        balance_before = dep.host.accounts.balance(dep.relayer_payer)
        results = []
        dep.relayer_api.submit_evidence(
            offender=offender.public_key, height=3, fingerprint=fingerprint,
            signature=signature, message=message, on_result=results.append,
        )
        dep.run_for(30.0)
        assert results[0].success
        gained = dep.host.accounts.balance(dep.relayer_payer) - balance_before
        assert gained > 0  # reward exceeded the fee paid


class TestEventPayloads:
    def test_new_block_event_carries_header(self, dep):
        events = []
        dep.host.subscribe("NewBlock", events.append)
        dep.run_for(120.0)  # Δ = 60 s: at least one empty block
        assert events
        header = events[0].payload["header"]
        assert header.height == events[0].payload["height"]
        assert header.fingerprint()  # well-formed

    def test_finalised_event_carries_signatures_for_the_light_client(self, dep):
        events = []
        dep.host.subscribe("FinalisedBlock", events.append)
        dep.run_for(150.0)
        assert events
        payload = events[0].payload
        header = payload["header"]
        signatures = payload["signatures"]
        # The signatures in the event must satisfy the counterparty's
        # light client directly (this is what the relayer forwards).
        epoch = dep.contract.epochs[header.epoch_id]
        message = header.sign_message()
        valid = [
            pk for pk, sig in signatures.items()
            if dep.scheme.verify(pk, message, sig)
        ]
        assert epoch.has_quorum(set(valid))
