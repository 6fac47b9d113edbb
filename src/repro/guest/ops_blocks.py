"""Block handlers: Alg. 1's GenerateBlock and Sign, the signing rewards
a finalisation pays out (§V-C), the §III-B staking pool's instructions,
and the §VI-A self-destruction that releases the stake of a dead chain.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.keys import PublicKey, Signature
from repro.errors import (
    AlreadySignedError,
    GuestError,
    HeadNotFinalisedError,
    StaleBlockError,
)
from repro.guest.block import GuestBlock, GuestBlockHeader
from repro.guest.epoch import Epoch
from repro.guest.instructions import claim_message
from repro.host.programs import InvokeContext


def generate_block(contract, ctx: InvokeContext) -> None:
    head = contract.head
    if not head.finalised:
        raise HeadNotFinalisedError(
            f"head block {head.height} awaits quorum"
        )
    config = contract.config
    age = ctx.unix_time - head.header.timestamp
    state_changed = contract.store.root_hash != head.header.state_root
    if not state_changed and age < config.delta_seconds:
        raise StaleBlockError(
            f"state unchanged and head is only {age:.0f} s old "
            f"(Δ = {config.delta_seconds:.0f} s)"
        )

    assert contract.current_epoch is not None
    epoch = contract.current_epoch
    rotate = (
        ctx.slot - contract._epoch_start_slot >= config.epoch_length_host_blocks
    )
    next_epoch: Optional[Epoch] = None
    if rotate:
        try:
            next_epoch = contract.staking.select_epoch(epoch.epoch_id + 1)
        except GuestError:
            next_epoch = None  # no eligible candidates: stay put
    pending = contract.packets_in_block(head.height + 1)
    header = GuestBlockHeader(
        height=head.height + 1,
        prev_hash=head.header.block_hash(),
        timestamp=ctx.unix_time,
        host_slot=ctx.slot,
        state_root=contract.store.root_hash,
        epoch_id=epoch.epoch_id,
        epoch_hash=epoch.canonical_hash(),
        packet_hashes=tuple(p.commitment_hash() for p in pending),
        last_in_epoch=next_epoch is not None,
        next_epoch_hash=next_epoch.canonical_hash() if next_epoch else None,
    )
    block = GuestBlock(header=header, generated_at=ctx.unix_time)
    contract.blocks.append(block)
    trace = ctx.chain.sim.trace
    trace.count("guest.blocks.generated")
    trace.gauge("guest.block.packets", len(pending))
    trace.gauge("guest.store.nodes", contract.store.node_count())
    trace.gauge("guest.store.bytes", contract.store.storage_bytes())
    # Block production -> quorum, per block and per carried packet
    # (phase 2 of the Fig. 2 decomposition; closed on finalisation).
    trace.begin("guest.block", key=header.height, actor="guest")
    for packet in pending:
        trace.finish("packet.block_wait", key=packet.sequence,
                     height=header.height)
        trace.begin("packet.quorum_wait", key=packet.sequence, actor="guest")
    contract._state_views[header.height] = contract.store.snapshot()
    if contract.state_journal is not None:
        contract.state_journal.mark_height(header.height)
    if next_epoch is not None:
        contract._adopt_epoch(next_epoch)
        contract.current_epoch = next_epoch
        contract._epoch_start_slot = ctx.slot
    ctx.meter.charge_hash(256)
    ctx.emit("NewBlock", guest=contract.chain_id,
             height=header.height, header=header)


def sign_block(contract, ctx: InvokeContext, height: int,
               public_key: PublicKey, signature: Signature) -> None:
    block = contract.block_at(height)                  # Alg. 1 l.20–21
    epoch = contract.epochs[block.header.epoch_id]
    if not epoch.is_validator(public_key):             # l.22
        raise GuestError(f"{public_key.short()} not in epoch {epoch.epoch_id}")
    if public_key in block.signers:                    # l.23
        raise AlreadySignedError(
            f"{public_key.short()} already signed block {height}"
        )
    message = block.header.sign_message()
    if not ctx.is_signature_verified(public_key, message):  # l.24
        raise GuestError("signature not verified by the runtime")

    trace = ctx.chain.sim.trace
    if block.finalised:
        trace.count("guest.signatures.after_quorum")
    block.add_signature(public_key, signature)         # l.25
    trace.count("guest.signatures")
    if not block.finalised and epoch.has_quorum(block.signer_set()):  # l.26–28
        block.finalised = True                          # l.29
        block.finalised_at = ctx.unix_time
        _distribute_rewards(contract, block, epoch)
        packets = contract.packets_in_block(height)
        trace.count("guest.blocks.finalised")
        trace.finish("guest.block", key=height,
                     signatures=len(block.signers))
        for packet in packets:
            trace.finish("packet.quorum_wait", key=packet.sequence,
                         height=height)
        next_epoch_hash = block.header.next_epoch_hash
        ctx.emit(                                      # l.30
            "FinalisedBlock",
            guest=contract.chain_id,
            height=height,
            header=block.header,
            packets=packets,
            signatures=dict(block.signers),
            new_epoch=(
                contract.epochs_by_hash.get(next_epoch_hash)
                if next_epoch_hash is not None else None
            ),
        )


def _distribute_rewards(contract, block: GuestBlock, epoch: Epoch) -> None:
    """Split the accrued packet fees among the finalising signers,
    pro rata by stake (the §V-C incentive the deployment lacked).

    Late signatures (after quorum) earn nothing — which is why
    rational validators skip already-finalised blocks."""
    share = contract.config.signer_reward_share
    pool = (contract._undistributed_fees * share.numerator) // share.denominator
    if pool <= 0:
        return
    signers = block.signer_set()
    signed_stake = epoch.signed_stake(signers)
    if signed_stake <= 0:
        return
    balances = contract.reward_balances
    distributed = 0
    for signer in signers:
        amount = pool * epoch.stake(signer) // signed_stake
        if amount:
            balances[signer] = balances.get(signer, 0) + amount
            distributed += amount
    contract._undistributed_fees -= distributed


def claim_rewards(contract, ctx: InvokeContext, public_key: PublicKey) -> None:
    message = claim_message(public_key, bytes(ctx.payer))
    if not ctx.is_signature_verified(public_key, message):
        raise GuestError("reward claim not authorised by the validator key")
    amount = contract.reward_balances.pop(public_key, 0)
    if amount <= 0:
        raise GuestError("no rewards accrued")
    ctx.accounts_db.transfer(contract.treasury, ctx.payer, amount)
    ctx.emit("RewardsClaimed", guest=contract.chain_id,
             validator=public_key, amount=amount)


def stake(contract, ctx: InvokeContext, public_key: PublicKey,
          lamports: int) -> None:
    ctx.transfer(ctx.payer, contract.treasury, lamports)
    contract.staking.bond(public_key, lamports)


def unstake(contract, ctx: InvokeContext, public_key: PublicKey,
            lamports: int) -> None:
    release = contract.staking.request_unbond(public_key, lamports, ctx.unix_time)
    ctx.emit("UnbondScheduled", guest=contract.chain_id,
             validator=public_key, release_time=release)


def withdraw_stake(contract, ctx: InvokeContext, public_key: PublicKey) -> None:
    amount = contract.staking.withdraw(public_key, ctx.unix_time)
    if amount == 0:
        raise GuestError("nothing withdrawable yet (unbonding hold)")
    ctx.accounts_db.transfer(contract.treasury, ctx.payer, amount)


def self_destruct(contract, ctx: InvokeContext) -> None:
    """Release every bond once the chain has been dead long enough.

    §VI-A's mitigation for the last-validator bank run: if no guest
    block was generated for the configured period, the chain is
    considered abandoned and validators recover their stake without
    needing a live quorum.  Permissionless, like GenerateBlock.
    """
    threshold = contract.config.self_destruct_after_seconds
    if threshold is None:
        raise GuestError("self-destruction is not enabled on this deployment")
    idle = ctx.unix_time - contract.head.header.timestamp
    if idle < threshold:
        raise GuestError(
            f"guest head is only {idle:.0f} s old; self-destruction "
            f"requires {threshold:.0f} s of inactivity"
        )
    released = contract.staking.release_all(ctx.unix_time)
    contract.halted = True
    ctx.emit("SelfDestructed", guest=contract.chain_id,
             released=released, idle_seconds=idle)
