"""Key and signature value types plus the pluggable scheme interface.

A :class:`SignatureScheme` turns seeds into keypairs and verifies
signatures.  Two implementations exist — :class:`~repro.crypto.ed25519.
Ed25519Scheme` (real) and :class:`~repro.crypto.simsig.SimSigScheme`
(fast simulation) — and the rest of the library is agnostic to which one
a deployment uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64


@dataclass(frozen=True, slots=True)
class PublicKey:
    """A 32-byte public key identifying a validator or account holder."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != PUBLIC_KEY_SIZE:
            raise ValueError(f"PublicKey requires exactly {PUBLIC_KEY_SIZE} bytes")

    def hex(self) -> str:
        return self.value.hex()

    def short(self) -> str:
        return self.value[:4].hex()

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"PublicKey({self.short()}…)"


@dataclass(frozen=True, slots=True)
class Signature:
    """A 64-byte signature."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != SIGNATURE_SIZE:
            raise ValueError(f"Signature requires exactly {SIGNATURE_SIZE} bytes")

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"Signature({self.value[:4].hex()}…)"


class SignatureScheme(abc.ABC):
    """Interface every signature scheme implements."""

    #: Compute units one on-chain verification of this scheme costs in the
    #: host simulator.  Mirrors Solana, where Ed25519 verification is done
    #: by the runtime per signature rather than inside the program.
    VERIFY_COMPUTE_UNITS: int = 2_000

    @abc.abstractmethod
    def keypair_from_seed(self, seed: bytes) -> "Keypair":
        """Derive a deterministic keypair from a 32-byte seed."""

    @abc.abstractmethod
    def sign(self, secret: bytes, message: bytes) -> Signature:
        """Sign ``message`` with the secret material of a keypair."""

    @abc.abstractmethod
    def verify(self, public_key: PublicKey, message: bytes, signature: Signature) -> bool:
        """Return ``True`` iff ``signature`` is valid for ``message``."""

    def verify_batch(
        self, entries: "Sequence[tuple[PublicKey, bytes, Signature]]"
    ) -> bool:
        """Verify a whole batch of ``(public_key, message, signature)``.

        Returns ``True`` iff *every* entry verifies — all-or-nothing, the
        contract both callers need (a light-client quorum check and the
        host runtime's per-transaction precompile list both reject the
        whole set on any failure).  The base implementation loops over
        :meth:`verify` with an early exit; schemes override it when they
        can amortise per-call setup across the batch.
        """
        return all(
            self.verify(public_key, message, signature)
            for public_key, message, signature in entries
        )


@dataclass(frozen=True, slots=True)
class Keypair:
    """A keypair bound to the scheme that created it."""

    public_key: PublicKey
    secret: bytes
    scheme: SignatureScheme

    def sign(self, message: bytes) -> Signature:
        return self.scheme.sign(self.secret, message)

    def __repr__(self) -> str:
        return f"Keypair({self.public_key.short()}…)"
