"""The Fisherman actor (§III-C + docs/ACCOUNTABILITY.md).

Watches the gossip layer for signed block claims, cross-checks each one
against the Guest Contract's on-chain record, and submits evidence for
any claim that conflicts — the contract then verifies the signature via
the runtime precompile and slashes the offender.  Fishermen are
permissionless; the slashing reward funds the watch.

Accountable safety extends the watch to whole *finalisations*: when a
forged quorum finalisation for an already-finalised height appears on
gossip, the fisherman pairs it with the real one into an
:class:`~repro.accountability.AccountabilityProof` and prosecutes the
entire double-signing intersection in one ACCOUNTABILITY instruction,
then notifies the counterparty-side light client so its trust
calculation discounts the slashed validators.

Evidence submission rides the same recovery stack as the relayer
(:mod:`repro.relayer.resilience`): a bounded :class:`RetryPolicy` with
deterministic jitter — drawn from an Rng minted via ``derived_seed`` so
retries never perturb the rest of the simulation — plus a
:class:`CircuitBreaker` that stops hammering the host RPC during
blackouts.  Prosecutions therefore survive relayer crashes and host
outages alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.accountability import AccountabilityProof, Finalisation, build_proof
from repro.errors import (
    EvidenceError,
    HostUnavailableError,
    UnknownBlockError,
)
from repro.fisherman.evidence import (
    FINALISATION_TOPIC,
    GOSSIP_TOPIC,
    BlockClaim,
    FinalisationClaim,
)
from repro.guest.api import DeliveryResult, GuestApi
from repro.guest.block import sign_message
from repro.guest.contract import GuestContract
from repro.host.transaction import TxReceipt
from repro.relayer.resilience import CircuitBreaker, RetryPolicy
from repro.sim.gossip import GossipNetwork
from repro.sim.kernel import Simulation
from repro.sim.rng import Rng


@dataclass
class FishermanReport:
    """One submitted piece of evidence and its outcome."""

    claim: BlockClaim
    accepted: bool
    error: str | None = None


@dataclass
class AccountabilityReport:
    """One submitted accountability proof and its outcome."""

    proof_id: str
    height: int
    offender_count: int
    accepted: bool
    error: str | None = None


class Fisherman:
    """Monitors gossip and prosecutes equivocating validators."""

    def __init__(self, sim: Simulation, gossip: GossipNetwork,
                 contract: GuestContract, api: GuestApi,
                 guest_client=None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.sim = sim
        self.contract = contract
        self.api = api
        #: The counterparty-side light client of this guest, if wired:
        #: notified of accepted proofs so its skipping-trust rule
        #: discounts the slashed validators (docs/ACCOUNTABILITY.md).
        self.guest_client = guest_client
        #: Bounded backoff for evidence that failed to land (RPC
        #: blackout or a dropped transaction): the prosecution must not
        #: silently die with the first fault, or the offender keeps
        #: their stake.  Same primitive as the relayer's recovery stack,
        #: with a slower base — evidence is not latency-critical.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=8, base_seconds=4.0, cap_seconds=60.0, jitter=0.5)
        self._retry_rng = Rng(sim.rng.derived_seed("fisherman-retry"))
        self.breaker = CircuitBreaker(sim, name="fisherman.breaker")
        self.reports: list[FishermanReport] = []
        self.accountability_reports: list[AccountabilityReport] = []
        self._prosecuted: set[tuple[bytes, int, bytes]] = set()
        #: Proofs built and not yet accepted on chain, by proof id.
        self._pending_proofs: dict[bytes, AccountabilityProof] = {}
        self._prosecuted_proofs: set[bytes] = set()
        self._subscription = gossip.subscribe(
            GOSSIP_TOPIC, self._on_claim, label="fisherman")
        self._finalisation_subscription = gossip.subscribe(
            FINALISATION_TOPIC, self._on_finalisation, label="fisherman")

    def _is_offence(self, claim: BlockClaim) -> bool:
        """The three §III-C offences collapse to: the claimed
        (height, fingerprint) does not match the real chain."""
        try:
            block = self.contract.block_at(claim.height)
        except UnknownBlockError:
            return True  # signed above the head
        return claim.fingerprint != block.header.fingerprint()

    # ------------------------------------------------------------------
    # Per-signature claims (§III-C)
    # ------------------------------------------------------------------

    def _on_claim(self, claim: BlockClaim) -> None:
        key = (bytes(claim.validator), claim.height, claim.fingerprint)
        if key in self._prosecuted:
            return
        if not self._is_offence(claim):
            return  # honest signature; nothing to do
        if self.contract.staking.stake_of(claim.validator) == 0:
            return  # nothing to slash
        self._prosecuted.add(key)
        self._submit_claim(claim, attempt=1)

    def _submit_claim(self, claim: BlockClaim, attempt: int) -> None:
        if not self.breaker.allow():
            self._schedule_retry(self._submit_claim, claim, attempt)
            return
        try:
            self.api.submit_evidence(
                offender=claim.validator,
                height=claim.height,
                fingerprint=claim.fingerprint,
                signature=claim.signature,
                message=claim.message(),
                on_result=partial(self._claim_landed, claim, attempt),
            )
        except HostUnavailableError:
            self.breaker.record_failure()
            self._schedule_retry(self._submit_claim, claim, attempt)

    def _claim_landed(self, claim: BlockClaim, attempt: int,
                      receipt: TxReceipt) -> None:
        self.reports.append(FishermanReport(
            claim=claim, accepted=receipt.success, error=receipt.error,
        ))
        if receipt.success:
            self.breaker.record_success()
            return
        error = receipt.error or ""
        if "no stake" in error or "matches the real block" in error:
            return  # already slashed, or not actually an offence
        # Transient failure (dropped transaction, fee race): retry.
        self._schedule_retry(self._submit_claim, claim, attempt)

    # ------------------------------------------------------------------
    # Whole-finalisation claims → accountability proofs
    # ------------------------------------------------------------------

    def _on_finalisation(self, claim: FinalisationClaim) -> None:
        proof = self._build_finalisation_proof(claim)
        if proof is None:
            # No whole-set proof to be had (sub-quorum forgery, unknown
            # epoch, or simply the honest finalisation circulating) —
            # each individual signature over a conflicting fingerprint
            # is still §III-C evidence; the per-claim path dedups and
            # drops honest signatures itself.
            fingerprint = claim.fingerprint()
            for public_key, signature in claim.signatures:
                self._on_claim(BlockClaim(
                    validator=public_key, height=claim.header.height,
                    fingerprint=fingerprint, signature=signature,
                ))
            return
        proof_id = bytes(proof.proof_id())
        if proof_id in self._prosecuted_proofs:
            return
        self._prosecuted_proofs.add(proof_id)
        self._pending_proofs[proof_id] = proof
        self.sim.trace.count("fisherman.equivocations.detected")
        self._submit_proof(proof_id, attempt=1)

    def _build_finalisation_proof(
            self, claim: FinalisationClaim) -> AccountabilityProof | None:
        """Pair a gossiped finalisation against the real chain; returns
        a proof when the claim is a genuine conflicting quorum
        finalisation, ``None`` otherwise."""
        header = claim.header
        fingerprint = claim.fingerprint()
        try:
            block = self.contract.block_at(header.height)
        except UnknownBlockError:
            return None  # above the head: no real finalisation to oppose
        if not block.finalised:
            return None
        real_fingerprint = block.header.fingerprint()
        if fingerprint == real_fingerprint:
            return None  # the real finalisation circulating honestly
        epoch = self.contract.epochs.get(header.epoch_id)
        if epoch is None or header.epoch_hash != epoch.canonical_hash():
            return None  # indicts no epoch this chain ever had
        if block.header.epoch_hash != epoch.canonical_hash():
            return None  # cross-epoch conflict: no single set to indict
        # The forged side must itself carry quorum power in valid
        # signatures, or it is not a finalisation — just bad individual
        # signatures for the per-claim path.
        message = sign_message(header.height, fingerprint)
        scheme = self.api.chain.scheme
        members = [
            (public_key, signature)
            for public_key, signature in claim.signatures
            if epoch.is_validator(public_key)
        ]
        if scheme.verify_batch(
            [(public_key, message, signature)
             for public_key, signature in members]
        ):
            valid = members
        else:
            valid = [
                (public_key, signature)
                for public_key, signature in members
                if scheme.verify(public_key, message, signature)
            ]
        if not epoch.has_quorum({public_key for public_key, _ in valid}):
            return None
        real_side = Finalisation(
            commitment=real_fingerprint,
            sign_bytes=sign_message(header.height, real_fingerprint),
            signatures=tuple(sorted(block.signers.items(),
                                    key=lambda item: bytes(item[0]))),
        )
        forged_side = Finalisation(
            commitment=fingerprint,
            sign_bytes=message,
            signatures=tuple(sorted(valid,
                                    key=lambda item: bytes(item[0]))),
        )
        return build_proof(self.contract.chain_id, header.height,
                           bytes(epoch.canonical_hash()),
                           real_side, forged_side)

    def _submit_proof(self, proof_id: bytes, attempt: int) -> None:
        proof = self._pending_proofs.get(proof_id)
        if proof is None:
            return  # landed (or abandoned) while a retry was in flight
        if not self.breaker.allow():
            self._schedule_retry(self._submit_proof, proof_id, attempt)
            return
        try:
            self.api.submit_accountability_proof(proof, on_done=partial(
                self._proof_landed, proof_id, proof, attempt))
        except HostUnavailableError:
            self.breaker.record_failure()
            self._schedule_retry(self._submit_proof, proof_id, attempt)

    def _proof_landed(self, proof_id: bytes, proof: AccountabilityProof,
                      attempt: int, result: DeliveryResult) -> None:
        self.accountability_reports.append(AccountabilityReport(
            proof_id=proof_id.hex(), height=proof.height,
            offender_count=len(proof.offenders()),
            accepted=result.success, error=result.error,
        ))
        if result.success:
            self.breaker.record_success()
            self._pending_proofs.pop(proof_id, None)
            self._notify_counterparty(proof)
            return
        error = result.error or ""
        if "already prosecuted" in error:
            self._pending_proofs.pop(proof_id, None)
            return  # someone else landed the same proof first
        self._schedule_retry(self._submit_proof, proof_id, attempt)

    def _notify_counterparty(self, proof: AccountabilityProof) -> None:
        """Feed an on-chain-accepted proof to the counterparty's light
        client of this guest (models the evidence transaction a watcher
        lands on the counterparty)."""
        if self.guest_client is None:
            return
        try:
            offenders = self.guest_client.register_accountability(proof)
        except EvidenceError:
            self.sim.trace.count("fisherman.notify.rejected")
            return
        self.sim.trace.count("fisherman.notify.accepted")
        self.sim.trace.observe("fisherman.notify.offenders", len(offenders))

    # ------------------------------------------------------------------
    # Shared retry scheduling (satellite of docs/ACCOUNTABILITY.md:
    # the relayer's RetryPolicy/CircuitBreaker, not ad-hoc timers)
    # ------------------------------------------------------------------

    def _schedule_retry(self, resubmit, token, attempt: int) -> None:
        if not self.retry_policy.allows(attempt):
            self.sim.trace.count("fisherman.retries.exhausted")
            return
        self.sim.trace.count("fisherman.retries")
        delay = self.retry_policy.delay(attempt, self._retry_rng)
        # While the breaker is open there is no point retrying sooner
        # than its next probe window.
        delay = max(delay, self.breaker.retry_after())
        self.sim.schedule(delay, resubmit, token, attempt + 1)
