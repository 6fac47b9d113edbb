"""Exception hierarchy shared by every subsystem of the reproduction.

Each subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch at whatever granularity they need: a specific condition
(e.g. :class:`SealedNodeError`), a subsystem (e.g. :class:`TrieError`) or
everything raised by this library.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidKeyError(CryptoError):
    """A key was malformed (wrong length, not on the curve, ...)."""


# ---------------------------------------------------------------------------
# Sealable trie
# ---------------------------------------------------------------------------

class TrieError(ReproError):
    """Base class for trie failures."""


class SealedNodeError(TrieError):
    """An operation touched a sealed (pruned) part of the trie.

    The paper relies on this behaviour to prevent double delivery: once a
    packet's receipt is sealed, any attempt to look it up or re-insert it
    raises this error (§III-A).
    """


class KeyNotFoundError(TrieError):
    """A lookup or seal targeted a key absent from the trie."""


class ProofError(TrieError):
    """A membership or non-membership proof failed verification."""


# ---------------------------------------------------------------------------
# Host chain (Solana-like simulator)
# ---------------------------------------------------------------------------

class HostError(ReproError):
    """Base class for host-chain failures."""


class TransactionTooLargeError(HostError):
    """A transaction exceeded the host's serialized-size limit (1232 B)."""


class ComputeBudgetExceededError(HostError):
    """A transaction ran past its compute-unit budget (1.4 M CU)."""


class InsufficientFundsError(HostError):
    """An account lacked the lamports for a transfer, fee or deposit."""


class AccountSizeError(HostError):
    """An account allocation exceeded the maximum account size (10 MiB)."""


class ProgramError(HostError):
    """A program (smart contract) aborted the transaction."""


class MissingSignerError(HostError):
    """An instruction required a signature that was not provided."""


class HostUnavailableError(HostError):
    """The host RPC endpoint rejected the request outright (blackout).

    Raised synchronously from ``submit``/``submit_bundle`` while a chaos
    blackout window is active, mirroring a connection-refused RPC node.
    Callers are expected to back off and retry; nothing was broadcast.
    """


# ---------------------------------------------------------------------------
# Guest blockchain
# ---------------------------------------------------------------------------

class GuestError(ReproError):
    """Base class for Guest Contract failures."""


class HeadNotFinalisedError(GuestError):
    """``generate_block`` was called while the head awaits its quorum."""


class StaleBlockError(GuestError):
    """``generate_block`` found nothing to commit: the state root is
    unchanged and the head is younger than the Δ block-age parameter."""


class AlreadySignedError(GuestError):
    """A validator attempted to sign the same block twice."""


class UnknownBlockError(GuestError):
    """A height referenced a block the chain does not have, or no longer
    keeps: below what its relayers can still reach."""


class StakeError(GuestError):
    """A staking operation was invalid (below minimum, still bonded, ...)."""


class DoubleDeliveryError(GuestError):
    """A packet that was already processed was submitted again."""


# ---------------------------------------------------------------------------
# IBC
# ---------------------------------------------------------------------------

class IbcError(ReproError):
    """Base class for IBC protocol failures."""


class ClientError(IbcError):
    """A light-client operation failed (unknown client, frozen, ...)."""


class HandshakeError(IbcError):
    """A connection or channel handshake step was out of order."""


class ChannelError(IbcError):
    """A channel operation failed (unknown channel, wrong state, ...)."""


class PacketError(IbcError):
    """A packet was rejected (bad proof, bad sequence, double delivery)."""


class TimeoutError_(IbcError):
    """A packet timed out (named with a trailing underscore to avoid
    shadowing the built-in :class:`TimeoutError`)."""


# ---------------------------------------------------------------------------
# Misbehaviour / fisherman
# ---------------------------------------------------------------------------

class EvidenceError(ReproError):
    """A piece of misbehaviour evidence failed validation."""


class AccountabilityError(EvidenceError):
    """An :class:`~repro.accountability.AccountabilityProof` failed
    verification (malformed, sub-quorum sides, thin intersection, or an
    invalid signature)."""


class EquivocationError(ClientError):
    """A light client observed two conflicting finalisations and froze.

    When the client runs in accountable mode the exception carries the
    :class:`~repro.accountability.AccountabilityProof` it constructed, so
    callers (the guest contract, the fisherman) can forward the evidence
    on-chain instead of merely halting.
    """

    def __init__(self, message: str, proof=None) -> None:
        super().__init__(message)
        self.proof = proof


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for simulation-kernel failures."""
