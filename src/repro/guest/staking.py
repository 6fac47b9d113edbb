"""The Proof-of-Stake staking pool (§III-B).

Candidates bond assets with the Guest Contract; at each epoch boundary
the contract selects the highest-staked candidates as the next epoch's
validators.  Exiting stake stays locked for the unbonding period (one
week in the deployment, §IV), and proven misbehaviour slashes a fraction
of the offender's bond (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from repro.crypto.keys import PublicKey
from repro.errors import StakeError
from repro.guest.config import GuestConfig
from repro.guest.epoch import Epoch


@dataclass
class _Bond:
    stake: int = 0
    #: Set when the candidate requested exit: (amount, release_time).
    unbonding: list[tuple[int, float]] = field(default_factory=list)


class StakingPool:
    """Bonds, unbonding queues, slashing and validator selection."""

    def __init__(self, config: GuestConfig) -> None:
        self._config = config
        self._bonds: dict[PublicKey, _Bond] = {}
        self.slashed_total: int = 0

    # ------------------------------------------------------------------
    # Bonding
    # ------------------------------------------------------------------

    def bond(self, candidate: PublicKey, amount: int) -> None:
        if amount <= 0:
            raise StakeError("bond amount must be positive")
        self._bonds.setdefault(candidate, _Bond()).stake += amount

    def stake_of(self, candidate: PublicKey) -> int:
        bond = self._bonds.get(candidate)
        return bond.stake if bond else 0

    def request_unbond(self, candidate: PublicKey, amount: int, now: float) -> float:
        """Start unbonding ``amount``; returns the release time."""
        bond = self._bonds.get(candidate)
        if bond is None or bond.stake < amount:
            raise StakeError(
                f"{candidate.short()} has {self.stake_of(candidate)} bonded, "
                f"cannot unbond {amount}"
            )
        if amount <= 0:
            raise StakeError("unbond amount must be positive")
        bond.stake -= amount
        release = now + self._config.unbonding_seconds
        bond.unbonding.append((amount, release))
        return release

    def withdrawable(self, candidate: PublicKey, now: float) -> int:
        bond = self._bonds.get(candidate)
        if bond is None:
            return 0
        return sum(amount for amount, release in bond.unbonding if release <= now)

    def withdraw(self, candidate: PublicKey, now: float) -> int:
        """Claim every matured unbonding entry; returns the total."""
        bond = self._bonds.get(candidate)
        if bond is None:
            return 0
        matured = [(a, r) for a, r in bond.unbonding if r <= now]
        bond.unbonding = [(a, r) for a, r in bond.unbonding if r > now]
        total = sum(a for a, _ in matured)
        if not bond.stake and not bond.unbonding:
            del self._bonds[candidate]
        return total

    # ------------------------------------------------------------------
    # Slashing (§III-C)
    # ------------------------------------------------------------------

    def slash(self, offender: PublicKey, fraction: Optional[Fraction] = None) -> int:
        """Burn a fraction of the offender's bonded *and* unbonding stake
        (unbonding stake is still at risk during the hold period — the
        reason §IV holds stake for a week after exit)."""
        fraction = fraction if fraction is not None else self._config.slash_fraction
        bond = self._bonds.get(offender)
        if bond is None:
            return 0
        slashed = (bond.stake * fraction.numerator) // fraction.denominator
        bond.stake -= slashed
        new_unbonding = []
        for amount, release in bond.unbonding:
            cut = (amount * fraction.numerator) // fraction.denominator
            slashed += cut
            new_unbonding.append((amount - cut, release))
        bond.unbonding = new_unbonding
        self.slashed_total += slashed
        return slashed

    def remove(self, offender: PublicKey) -> None:
        """Eject a candidate from future selection (stake keeps unbonding)."""
        bond = self._bonds.get(offender)
        if bond is None:
            return
        if bond.stake:
            release_never_needed = bond.stake
            bond.unbonding.append((release_never_needed, float("inf")))
            bond.stake = 0

    # ------------------------------------------------------------------
    # Selection (§III-B: "the contract selects the Validators with the
    # most stake")
    # ------------------------------------------------------------------

    def select_epoch(self, epoch_id: int) -> Epoch:
        eligible = [
            (candidate, bond.stake)
            for candidate, bond in self._bonds.items()
            if bond.stake >= self._config.min_stake_lamports
        ]
        # Highest stake first; ties broken by key bytes for determinism.
        eligible.sort(key=lambda item: (-item[1], bytes(item[0])))
        chosen = dict(eligible[: self._config.max_validators])
        if not chosen:
            raise StakeError("no eligible validator candidates")
        total = sum(chosen.values())
        return Epoch(
            epoch_id=epoch_id,
            validators=chosen,
            quorum_stake=self._config.quorum_stake(total),
        )

    def release_all(self, now: float) -> int:
        """§VI-A self-destruction: every bond matures immediately.

        Returns the total released.  Candidates then recover everything
        through ordinary withdrawals — the escape hatch for the
        last-validator bank-run problem.
        """
        released = 0
        for bond in self._bonds.values():
            if bond.stake:
                bond.unbonding.append((bond.stake, now))
                released += bond.stake
                bond.stake = 0
            matured = []
            for amount, release in bond.unbonding:
                if release > now:
                    released += amount
                    matured.append((amount, now))
                else:
                    matured.append((amount, release))
            bond.unbonding = matured
        return released

    def eligible_count(self) -> int:
        """Candidates that would survive :meth:`select_epoch` selection."""
        return sum(
            1 for bond in self._bonds.values()
            if bond.stake >= self._config.min_stake_lamports
        )

    def is_eligible(self, candidate: PublicKey) -> bool:
        return self.stake_of(candidate) >= self._config.min_stake_lamports

    def locked_total(self) -> int:
        """All lamports the pool holds: bonded plus every unbonding entry.

        Slashing accounting pivots on this number — a slash of ``s``
        lamports must reduce it by exactly ``s`` (stake conservation).
        """
        total = 0
        for bond in self._bonds.values():
            total += bond.stake
            total += sum(amount for amount, _ in bond.unbonding)
        return total
