"""Host transactions: instructions, signature-verify entries, size rules.

The serialized size is computed from the transaction's actual content
following Solana's wire layout (compact arrays of signatures, account
keys, then instructions), and the 1232-byte cap is enforced at submission.
This cap — not any hard-coded constant — is what forces multi-transaction
light-client updates (Fig. 4: 36.5 transactions on average).

``SigVerify`` entries model Solana's Ed25519 verify precompile: the
runtime checks each signature *before* program execution and the program
then trusts the verified triples (the standard workaround for the compute
budget being too small for in-program cryptography, §IV).  Each entry
costs an extra per-signature base fee, which is why §V-B bills "0.1 cents
per transaction and additional 0.1 cents per signature".
"""

from __future__ import annotations

from repro import ids
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.crypto.keys import PublicKey, Signature
from repro.derive import derive_once
from repro.errors import TransactionTooLargeError
from repro.host.accounts import Address
from repro.units import MAX_TRANSACTION_BYTES

if TYPE_CHECKING:
    from repro.host.fees import FeeStrategy

_tx_ids = ids.mint("host.tx")

#: Fixed per-transaction envelope bytes: message header (3), the recent
#: blockhash (32) and the compact-array length prefixes (~3).
_ENVELOPE_BYTES = 38
_SIGNATURE_BYTES = 64
_ACCOUNT_KEY_BYTES = 32
#: Per-instruction framing: program-id index, account-count, data-length.
_INSTRUCTION_FRAME_BYTES = 4
#: One Ed25519-precompile entry: signature + public key + offsets header.
_SIG_VERIFY_ENTRY_BYTES = 64 + 32 + 14


@dataclass(frozen=True, slots=True)
class Instruction:
    """One program invocation: target program, account list, input data."""

    program_id: Address
    accounts: tuple[Address, ...]
    data: bytes

    def frame_bytes(self) -> int:
        return _INSTRUCTION_FRAME_BYTES + len(self.accounts) + len(self.data)


@dataclass(frozen=True, slots=True)
class SigVerify:
    """A signature for the runtime to verify ahead of program execution.

    The message bytes ride in the transaction (they are part of its
    size); programs receive the verified ``(public_key, message)`` pairs
    through :class:`~repro.host.programs.InvokeContext`.
    """

    public_key: PublicKey
    message: bytes
    signature: Signature

    def entry_bytes(self) -> int:
        return _SIG_VERIFY_ENTRY_BYTES + len(self.message)


@dataclass
class Transaction:
    """A host transaction.

    Built whole and never assigned to afterwards: the size check at
    submission, a bundle's lock set and the rollback snapshot all read
    the one :meth:`unique_accounts` derived on first use.
    """

    payer: Address
    instructions: tuple[Instruction, ...]
    fee_strategy: "FeeStrategy"
    #: Additional transaction-level signers beyond the payer.
    extra_signers: tuple[Address, ...] = ()
    sig_verifies: tuple[SigVerify, ...] = ()
    compute_budget: Optional[int] = None
    tx_id: int = field(default_factory=lambda: next(_tx_ids))

    @property
    def signature_count(self) -> int:
        """Transaction-level signatures (payer + extra signers)."""
        return 1 + len(self.extra_signers)

    @property
    def verify_count(self) -> int:
        """Precompile signature verifications carried by the transaction."""
        return len(self.sig_verifies)

    @derive_once
    def unique_accounts(self) -> frozenset[Address]:
        accounts: set[Address] = {self.payer}
        accounts.update(self.extra_signers)
        for instruction in self.instructions:
            accounts.add(instruction.program_id)
            accounts.update(instruction.accounts)
        return frozenset(accounts)

    def serialized_size(self) -> int:
        """Wire size following Solana's transaction layout."""
        size = _ENVELOPE_BYTES
        size += self.signature_count * _SIGNATURE_BYTES
        size += len(self.unique_accounts()) * _ACCOUNT_KEY_BYTES
        size += sum(instruction.frame_bytes() for instruction in self.instructions)
        size += sum(entry.entry_bytes() for entry in self.sig_verifies)
        return size

    def check_size(self, limit: int = MAX_TRANSACTION_BYTES) -> None:
        size = self.serialized_size()
        if size > limit:
            raise TransactionTooLargeError(
                f"transaction is {size} bytes; the host caps at {limit}"
            )


#: Usable instruction-data budget for a single-signer, few-account
#: transaction; callers chunking large payloads size their chunks with it.
def max_chunk_bytes(account_count: int = 4, signer_count: int = 1) -> int:
    """Largest instruction-data payload that still fits the size cap."""
    overhead = (
        _ENVELOPE_BYTES
        + signer_count * _SIGNATURE_BYTES
        + (account_count + 1) * _ACCOUNT_KEY_BYTES  # +1 for the program id
        + _INSTRUCTION_FRAME_BYTES
        + account_count
    )
    return MAX_TRANSACTION_BYTES - overhead


@dataclass
class TxReceipt:
    """Execution outcome recorded in a block."""

    tx_id: int
    slot: int
    time: float
    success: bool
    fee_paid: int
    compute_consumed: int
    error: Optional[str] = None
    #: Set when the transaction was submitted as part of a bundle.
    bundle_id: Optional[int] = None
    #: The events its programs emitted (the transaction's logs); empty
    #: unless it succeeded.
    events: tuple = ()
