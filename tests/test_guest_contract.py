"""Tests for the Guest Contract driven through real host transactions.

Uses a small deployment (4 homogeneous validators) and exercises Alg. 1
op by op: SendPacket fee collection, GenerateBlock's preconditions
(head finalised, state-changed-or-Δ), Sign's validation chain, staking
ops, and the state-budget guard.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.errors import UnknownBlockError
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.host.fees import BaseFee
from repro.host.transaction import Instruction, SigVerify, Transaction
from repro.units import sol_to_lamports
from repro.validators.profiles import simple_profiles


@pytest.fixture
def dep():
    return Deployment(DeploymentConfig(
        seed=3,
        guest=GuestConfig(delta_seconds=60.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))


def run_tx(dep, data, payer=None, sig_verifies=(), wait=30.0):
    """Submit one contract instruction and return its receipt."""
    results = []
    tx = Transaction(
        payer=payer or dep.user,
        instructions=(Instruction(
            dep.contract.program_id,
            (dep.contract.state_account, dep.contract.treasury),
            data,
        ),),
        fee_strategy=BaseFee(),
        sig_verifies=tuple(sig_verifies),
    )
    dep.host.submit(tx, on_result=results.append)
    dep.run_for(wait)
    assert results, "transaction never landed"
    return results[0]


class TestSendPacket:
    def test_requires_open_channel(self, dep):
        receipt = run_tx(dep, ins.send_packet("transfer", "channel-9", b"x", 0.0))
        assert not receipt.success
        assert "unknown channel" in receipt.error

    def test_collects_fees(self, dep):
        dep.establish_link()
        treasury_before = dep.host.accounts.balance(dep.contract.treasury)
        payload = b"p" * 100
        receipt = run_tx(dep, ins.send_packet("transfer", "channel-0", payload, 0.0))
        assert receipt.success
        config = dep.contract.config
        expected = config.send_fee_lamports + config.send_fee_per_byte * len(payload)
        assert dep.host.accounts.balance(dep.contract.treasury) - treasury_before == expected

    def test_sequences_and_commitments(self, dep):
        dep.establish_link()
        run_tx(dep, ins.send_packet("transfer", "channel-0", b"a", 0.0))
        run_tx(dep, ins.send_packet("transfer", "channel-0", b"b", 0.0))
        from repro.ibc import commitment as paths
        from repro.ibc.identifiers import ChannelId, PortId
        prefix = paths.commitment_prefix(PortId("transfer"), ChannelId("channel-0"))
        # Whichever are not yet acked still have commitments; at least
        # sequence numbers were assigned in order.
        assert dep.contract.ibc._next_seq_send[(PortId("transfer"), ChannelId("channel-0"))] == 2


class TestGenerateBlock:
    def test_stale_generation_rejected(self, dep):
        dep.run_for(10.0)  # initial state: genesis only, no changes
        receipt = run_tx(dep, ins.generate_block())
        assert not receipt.success
        assert "state unchanged" in receipt.error

    def test_delta_forces_empty_block(self, dep):
        """§III-A: after Δ an empty block may (and does) get generated."""
        dep.run_for(100.0)  # Δ = 60 s in this fixture; cranker fires
        heights = [b.height for b in dep.contract.blocks]
        assert len(heights) >= 2  # genesis + at least one empty block
        head = dep.contract.head
        assert head.header.state_root == dep.contract.blocks[0].header.state_root

    def test_unfinalised_head_blocks_generation(self):
        """Alg. 1 line 14: no new block while the head awaits quorum."""
        dep = Deployment(DeploymentConfig(
            seed=3,
            guest=GuestConfig(delta_seconds=30.0, min_stake_lamports=1),
            profiles=simple_profiles(4, latency_median=500.0, latency_q3=700.0),
        ))
        dep.run_for(120.0)  # Δ passed; a block generates; nobody signed yet
        assert not dep.contract.head.finalised
        receipt = run_tx(dep, ins.generate_block(), wait=20.0)
        assert not receipt.success
        assert "awaits quorum" in receipt.error


class TestSignBlock:
    def make_unsigned_block(self, dep):
        dep.run_for(100.0)  # Δ-triggered block exists
        head = dep.contract.head
        return head

    def test_validators_finalise_via_quorum(self, dep):
        dep.run_for(120.0)
        # The 4 validators (equal stake, quorum > 2/3) signed the empty
        # Δ block; at least 3 signatures were needed.
        head = dep.contract.head
        assert head.finalised
        assert len(head.signers) >= 3

    def test_non_validator_signature_rejected(self, dep):
        dep.run_for(100.0)
        head = dep.contract.head
        outsider = dep.scheme.keypair_from_seed(bytes([9]) * 32)
        message = head.header.sign_message()
        signature = outsider.sign(message)
        receipt = run_tx(
            dep,
            ins.sign_block(head.height, outsider.public_key, signature),
            sig_verifies=[SigVerify(outsider.public_key, message, signature)],
        )
        assert not receipt.success
        assert "not in epoch" in receipt.error

    def test_signature_without_precompile_rejected(self, dep):
        dep.run_for(100.0)
        head = dep.contract.head
        validator = dep.validators[0].keypair
        if validator.public_key in head.signers:
            pytest.skip("validator already signed in this scenario")
        message = head.header.sign_message()
        signature = validator.sign(message)
        receipt = run_tx(
            dep, ins.sign_block(head.height, validator.public_key, signature),
        )  # no SigVerify entry
        assert not receipt.success
        assert "not verified" in receipt.error

    def test_double_sign_rejected(self, dep):
        dep.run_for(120.0)
        head = dep.contract.head
        signer = next(iter(head.signers))
        node = next(v for v in dep.validators if v.keypair.public_key == signer)
        message = head.header.sign_message()
        signature = node.keypair.sign(message)
        receipt = run_tx(
            dep,
            ins.sign_block(head.height, signer, signature),
            sig_verifies=[SigVerify(signer, message, signature)],
        )
        assert not receipt.success
        assert "already signed" in receipt.error

    def test_unknown_height_rejected(self, dep):
        validator = dep.validators[0].keypair
        from repro.guest.block import sign_message
        message = sign_message(99, b"\x00" * 32)
        signature = validator.sign(message)
        receipt = run_tx(
            dep,
            ins.sign_block(99, validator.public_key, signature),
            sig_verifies=[SigVerify(validator.public_key, message, signature)],
        )
        assert not receipt.success
        assert "no guest block" in receipt.error


class TestStakingOps:
    def test_stake_unstake_withdraw_cycle(self):
        config = DeploymentConfig(
            seed=3,
            guest=GuestConfig(delta_seconds=60.0, min_stake_lamports=1,
                              unbonding_seconds=50.0),
            profiles=simple_profiles(4),
        )
        dep = Deployment(config)
        newcomer = dep.scheme.keypair_from_seed(bytes([7]) * 32)
        stake = sol_to_lamports(5.0)

        receipt = run_tx(dep, ins.stake(newcomer.public_key, stake))
        assert receipt.success
        assert dep.contract.staking.stake_of(newcomer.public_key) == stake

        receipt = run_tx(dep, ins.unstake(newcomer.public_key, stake))
        assert receipt.success
        assert dep.contract.staking.stake_of(newcomer.public_key) == 0

        # Too early: the unbonding hold (§IV) blocks the withdrawal.
        receipt = run_tx(dep, ins.withdraw_stake(newcomer.public_key))
        assert not receipt.success
        assert "unbonding hold" in receipt.error

        dep.run_for(60.0)
        balance_before = dep.host.accounts.balance(dep.user)
        receipt = run_tx(dep, ins.withdraw_stake(newcomer.public_key))
        assert receipt.success
        gained = dep.host.accounts.balance(dep.user) - balance_before
        assert gained == stake - receipt.fee_paid

    def test_stake_needs_funds(self, dep):
        from repro.host.accounts import Address
        broke = Address.derive("broke")
        dep.host.airdrop(broke, 10_000)  # fees only
        key = dep.scheme.keypair_from_seed(bytes([8]) * 32)
        receipt = run_tx(dep, ins.stake(key.public_key, sol_to_lamports(1.0)), payer=broke)
        assert not receipt.success


class TestBuffers:
    def test_unknown_buffer_rejected(self, dep):
        receipt = run_tx(dep, ins.recv_exec(12345))
        assert not receipt.success
        assert "unknown buffer" in receipt.error

    def test_incomplete_buffer_rejected(self, dep):
        receipt = run_tx(dep, ins.chunk(1, 0, 3, b"part"))
        assert receipt.success
        receipt = run_tx(dep, ins.recv_exec(1))
        assert not receipt.success
        assert "chunks" in receipt.error

    def test_chunk_total_mismatch_rejected(self, dep):
        assert run_tx(dep, ins.chunk(2, 0, 3, b"a")).success
        receipt = run_tx(dep, ins.chunk(2, 1, 4, b"b"))
        assert not receipt.success
        assert "mismatch" in receipt.error

    def test_bad_chunk_index_rejected(self, dep):
        receipt = run_tx(dep, ins.chunk(3, 5, 3, b"x"))
        assert not receipt.success


class TestMisc:
    def test_unknown_opcode(self, dep):
        receipt = run_tx(dep, bytes([250]))
        assert not receipt.success
        assert "unknown opcode" in receipt.error

    def test_empty_instruction(self, dep):
        receipt = run_tx(dep, b"")
        assert not receipt.success

    def test_double_initialize_rejected(self, dep):
        with pytest.raises(Exception):
            dep.contract.initialize(0, 0.0)

    def test_state_view_serves_proofs_for_old_heights(self, dep):
        """Back to the oldest height the guest keeps — the one below the
        lowest its relayer can still prove at — and no further."""
        dep.establish_link()
        kept = dep.contract.ibc.kept_from
        assert kept > 0
        view = dep.contract.state_view(kept)
        assert view.root_hash == dep.contract.blocks[kept].header.state_root
        with pytest.raises(UnknownBlockError):
            dep.contract.state_view(kept - 1)
        head = dep.contract.head
        view = dep.contract.state_view(head.height)
        assert view.root_hash == head.header.state_root
