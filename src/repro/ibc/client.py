"""The light-client interface (ICS-02).

A light client tracks the counterparty chain's consensus: for each
verified height it stores the state root (the counterparty's provable-
store commitment) and the block timestamp.  The IBC handlers use it to
verify membership/non-membership proofs against those roots and to
evaluate packet timeouts against counterparty time.

Two concrete clients live in :mod:`repro.lightclient`: the guest light
client (stake-quorum signature verification — what counterparties run to
follow the guest chain) and the Tendermint light client (what the Guest
Contract runs, in chunks, to follow the counterparty).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.crypto.hashing import Hash
from repro.errors import ClientError
from repro.trie.proof import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
    verify_membership,
    verify_non_membership,
)


class LightClient(abc.ABC):
    """On-chain view of a counterparty chain's consensus."""

    def __init__(self) -> None:
        self.frozen = False

    # -- consensus tracking ------------------------------------------------

    @abc.abstractmethod
    def latest_height(self) -> int:
        """Highest verified counterparty height."""

    @abc.abstractmethod
    def consensus_root(self, height: int) -> Optional[Hash]:
        """Provable-store root at ``height`` (None if untracked)."""

    @abc.abstractmethod
    def consensus_timestamp(self, height: int) -> Optional[float]:
        """Counterparty block time at ``height`` (None if untracked)."""

    # -- misbehaviour --------------------------------------------------------

    def freeze(self) -> None:
        """Stop trusting this client (evidence of counterparty equivocation
        or a security response, §VI-C)."""
        self.frozen = True

    def ensure_active(self) -> None:
        if self.frozen:
            raise ClientError("light client is frozen")

    # -- proof verification ----------------------------------------------

    def verify_key_membership(self, height: int, key: bytes, value: bytes,
                              proof: MembershipProof | MembershipWitness) -> bool:
        """Check that ``key -> value`` under the root verified at ``height``.

        ``proof`` is the key's own path or, in a batched delivery, the
        witness its whole height shares: accepted on the same terms —
        it folds to the root stored for ``height`` and the key it
        derives from the path walked maps to ``value``.
        """
        self.ensure_active()
        root = self.consensus_root(height)
        if root is None:
            return False
        if isinstance(proof, MembershipWitness):
            return proof.proves(root, key, value)
        if proof.key != key or proof.value != value:
            return False
        return verify_membership(root, proof)

    def verify_key_absence(self, height: int, key: bytes, proof: NonMembershipProof) -> bool:
        """Check that ``key`` is absent under the root verified at ``height``."""
        self.ensure_active()
        root = self.consensus_root(height)
        if root is None:
            return False
        if proof.key != key:
            return False
        return verify_non_membership(root, proof)
