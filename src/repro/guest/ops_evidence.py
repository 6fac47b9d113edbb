"""Misbehaviour handlers: a Fisherman's single-signature evidence
(§III-C) and the staged equivocation proof that slashes a double-signing
quorum intersection (docs/ACCOUNTABILITY.md).
"""

from __future__ import annotations

from repro.accountability import (
    AccountabilityProof,
    apply_accountability_slash,
    verify_proof,
)
from repro.crypto.hashing import Hash
from repro.errors import AccountabilityError, GuestError, ProgramError
from repro.guest.block import sign_message
from repro.guest.instructions import read_evidence_payload
from repro.host.programs import InvokeContext


def evidence(contract, ctx: InvokeContext, kind: int, payload: bytes) -> None:
    """Validate misbehaviour evidence and slash the offender.

    The evidence is a signature by a validator over a block-sign
    message ``(height, fingerprint)`` that conflicts with the chain:
    either the height is above the head, or the fingerprint differs
    from the real block at that height.
    """
    public_key, height, fingerprint = read_evidence_payload(payload)

    message = sign_message(height, fingerprint)
    if not ctx.is_signature_verified(public_key, message):
        raise ProgramError("evidence signature not verified by the runtime")
    if contract.staking.stake_of(public_key) == 0:
        raise GuestError(f"{public_key.short()} has no stake to slash")

    if height >= len(contract.blocks):
        offence = "signed a block above the head"
    else:
        real = contract.blocks[height].header.fingerprint()
        if fingerprint == real:
            raise GuestError("signature matches the real block; no offence")
        offence = "signed a conflicting block"

    slashed = contract.staking.slash(public_key)
    contract.staking.remove(public_key)
    # Reward the fisherman with half of the slashed stake.
    reward = slashed // 2
    ctx.accounts_db.transfer(contract.treasury, ctx.payer, reward)
    ctx.emit("ValidatorSlashed", guest=contract.chain_id, validator=public_key,
             slashed=slashed, reward=reward, offence=offence, kind=kind)


def accountability(contract, ctx: InvokeContext, raw: bytes) -> None:
    """Prosecute an equivocation: slash the double-signing quorum.

    The staged buffer held an :class:`AccountabilityProof` — two
    conflicting finalisations of one guest height with both raw
    signature sets.  The proof is self-contained: verification only
    needs the epoch it names (both sides may be forgeries; whoever
    signed them both still equivocated).  Offenders lose
    ``accountability_slash_fraction`` of their stake and are ejected
    from candidacy, subject to the ``min_live_validators`` floor.
    """
    ctx.meter.charge_hash(len(raw))
    proof = AccountabilityProof.from_bytes(raw)
    if proof.chain_id != contract.chain_id:
        raise GuestError(
            f"proof is for chain {proof.chain_id!r}, not {contract.chain_id!r}")
    proof_id = bytes(proof.proof_id())
    if proof_id in contract.prosecuted_proofs:
        raise GuestError("equivocation already prosecuted")
    epoch = contract.epochs_by_hash.get(Hash(proof.valset_hash))
    if epoch is None:
        raise GuestError("proof references an unknown validator epoch")
    # Protocol binding: each side's sign-bytes must be the guest
    # block-sign message over the claimed height and commitment, or
    # the height/commitment fields could lie about what was signed.
    for fin in (proof.first, proof.second):
        if fin.sign_bytes != sign_message(proof.height, fin.commitment):
            raise AccountabilityError(
                "finalisation sign-bytes do not bind the claimed height")
    offenders = verify_proof(
        proof,
        powers=epoch.validators,
        total_power=epoch.total_stake,
        quorum_power=epoch.quorum_stake,
        batch_verify=ctx.verify_signature_set,
    )
    config = contract.config
    outcome = apply_accountability_slash(
        contract.staking, offenders,
        fraction=config.accountability_slash_fraction,
        min_live=config.min_live_validators,
    )
    fraction = config.accountability_reward_fraction
    reward = (outcome.total_slashed * fraction.numerator
              ) // fraction.denominator
    if reward:
        ctx.accounts_db.transfer(contract.treasury, ctx.payer, reward)
    burned = outcome.total_slashed - reward
    contract.burned_total += burned
    contract.prosecuted_proofs.add(proof_id)
    offender_stake = sum(epoch.stake(pk) for pk in offenders)
    contract.accountability_slashes.append({
        "height": proof.height,
        "proof_id": proof_id.hex(),
        "epoch_id": epoch.epoch_id,
        "offenders": [pk.short() for pk in outcome.offenders],
        "ejected": [pk.short() for pk in outcome.ejected],
        "spared": [pk.short() for pk in outcome.spared],
        "slashed": outcome.total_slashed,
        "burned": burned,
        "reward": reward,
        "offender_stake": offender_stake,
        "total_stake": epoch.total_stake,
    })
    trace = ctx.chain.sim.trace
    trace.count("guest.accountability.slashes")
    trace.observe("guest.accountability.offenders", len(offenders))
    ctx.emit("EquivocationSlashed", guest=contract.chain_id,
             height=proof.height, proof_id=proof_id,
             validators=outcome.ejected, spared=outcome.spared,
             slashed=outcome.total_slashed, burned=burned, reward=reward,
             offender_stake=offender_stake,
             total_stake=epoch.total_stake)
