"""Guest blocks: headers, fingerprints and signature collection.

A guest block commits to the sealable trie's root (the provable state),
its parent, the host time it was generated at, and the validator epoch
that must finalise it.  Validators sign the header's *fingerprint* —
the canonical hash that the counterparty's guest light client also
verifies signatures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import Hash, hash_concat, merkle_root
from repro.crypto.keys import PublicKey, Signature
from repro.derive import derive_once
from repro.errors import GuestError


@dataclass(frozen=True)
class GuestBlockHeader:
    """The signed portion of a guest block.

    Frozen, and every field is an immutable value (ints, a float,
    :class:`Hash`, a tuple of :class:`Hash`), so :meth:`fingerprint` is
    derived once per header however many validators, light clients and
    fishermen ask for it (:func:`repro.derive.derive_once`).
    """

    height: int
    prev_hash: Hash
    #: Host time at generation (guest blocks inherit host timestamps —
    #: the introspection feature the guest layer adds, §III).
    timestamp: float
    host_slot: int
    state_root: Hash
    epoch_id: int
    epoch_hash: Hash
    #: Commitment hashes of the packets newly included in this block;
    #: relayers use it to know what to forward (Alg. 2).
    packet_hashes: tuple[Hash, ...] = ()
    #: Set on the final block of an epoch; tells relayers to push a
    #: validator-set update to the counterparty (Alg. 2 line 5).
    last_in_epoch: bool = False
    #: Present when this block activates a new epoch: its canonical hash.
    next_epoch_hash: Optional[Hash] = None

    @derive_once
    def fingerprint(self) -> bytes:
        """Canonical bytes validators sign and light clients verify."""
        parts: list[bytes | Hash] = [
            b"guest-block",
            self.height.to_bytes(8, "big"),
            self.prev_hash,
            round(self.timestamp * 1000).to_bytes(8, "big"),
            self.host_slot.to_bytes(8, "big"),
            self.state_root,
            self.epoch_id.to_bytes(8, "big"),
            self.epoch_hash,
            merkle_root(self.packet_hashes),
            b"\x01" if self.last_in_epoch else b"\x00",
            self.next_epoch_hash if self.next_epoch_hash is not None else Hash.zero(),
        ]
        return bytes(hash_concat(*parts))

    def block_hash(self) -> Hash:
        return Hash(self.fingerprint())

    def sign_message(self) -> bytes:
        """The structured message validators sign for this block."""
        return sign_message(self.height, self.fingerprint())


def sign_message(height: int, fingerprint: bytes) -> bytes:
    """Message a validator signs to attest a block: domain tag, height,
    fingerprint.

    The height travels *outside* the hash so that misbehaviour evidence
    (§III-C) is checkable on-chain: given a signed message, the Guest
    Contract can reconstruct which height the signer claimed without
    being able to invert the fingerprint.
    """
    return b"guest-sign" + height.to_bytes(8, "big") + fingerprint


@dataclass
class GuestBlock:
    """A guest block accumulating validator signatures until finalised."""

    header: GuestBlockHeader
    signers: dict[PublicKey, Signature] = field(default_factory=dict)
    finalised: bool = False
    #: Simulation times, recorded for the evaluation metrics.
    generated_at: float = 0.0
    finalised_at: Optional[float] = None

    @property
    def height(self) -> int:
        return self.header.height

    def add_signature(self, public_key: PublicKey, signature: Signature) -> None:
        if public_key in self.signers:
            raise GuestError(f"{public_key.short()} already signed block {self.height}")
        self.signers[public_key] = signature

    def signer_set(self) -> set[PublicKey]:
        return set(self.signers)

    def __repr__(self) -> str:
        state = "finalised" if self.finalised else f"{len(self.signers)} sigs"
        return f"GuestBlock(h={self.height}, {state})"
