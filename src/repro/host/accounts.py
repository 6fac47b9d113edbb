"""Host accounts: addressed lamport balances with owned data blobs.

Follows Solana's account model: every account has a 32-byte address, a
lamport balance, a byte-array ``data`` field, and an ``owner`` program
which is the only program allowed to mutate it.  Accounts holding data
must keep a rent-exemption deposit proportional to their size — that
deposit is where the paper's 14.6 k USD figure for the guest's 10 MiB
state account comes from (§V-D).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import AccountSizeError, HostError, InsufficientFundsError
from repro.units import MAX_ACCOUNT_BYTES, rent_exempt_deposit


@dataclass(frozen=True, slots=True)
class Address:
    """A 32-byte account address."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 32:
            raise ValueError("Address requires exactly 32 bytes")

    @classmethod
    def derive(cls, label: str) -> "Address":
        """A deterministic address from a human-readable label (the
        simulator's stand-in for Solana's program-derived addresses)."""
        return cls(hashlib.sha256(b"address:" + label.encode("utf-8")).digest())

    def hex(self) -> str:
        return self.value.hex()

    def short(self) -> str:
        return self.value[:4].hex()

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"Address({self.short()}…)"


@dataclass
class Account:
    """One host account: balance, allocated size, data and owning program.

    ``size`` is the byte length :meth:`AccountsDb.allocate` was asked
    for — the number the rent-exemption deposit, the account limit and
    the double-allocation refusal are about — and 0 for an account
    nobody allocated.  It is a number, not a buffer: allocating writes
    no bytes, so the guest's 10 MiB state account (whose state is the
    ``GuestContract`` object) costs its deposit and nothing resident
    (docs/PERFORMANCE.md, "An account is its size").

    ``data`` is whatever a program last stored on the account, ``b""``
    until one does, and independent of ``size``.  It is an *immutable*
    ``bytes`` value: programs replace it wholesale rather than patching
    it in place, so the rollback snapshot is a reference grab, not a
    copy.
    """

    address: Address
    lamports: int = 0
    data: bytes = b""
    owner: Optional[Address] = None
    size: int = 0

    def snapshot(self) -> tuple[int, bytes, Optional[Address], int]:
        """Copy-out used for transaction rollback (O(1): data is
        immutable, so the reference itself is the snapshot)."""
        return (self.lamports, self.data, self.owner, self.size)

    def restore(self, snap: tuple[int, bytes, Optional[Address], int]) -> None:
        self.lamports, self.data, self.owner, self.size = snap


class AccountsDb:
    """The bank: all accounts, with transfer / create / resize primitives."""

    def __init__(self) -> None:
        self._accounts: dict[Address, Account] = {}
        self.burned_fees: int = 0

    def account(self, address: Address) -> Account:
        """Fetch-or-create (zero-balance accounts exist implicitly)."""
        existing = self._accounts.get(address)
        if existing is None:
            existing = Account(address=address)
            self._accounts[address] = existing
        return existing

    def get(self, address: Address) -> Optional[Account]:
        return self._accounts.get(address)

    def balance(self, address: Address) -> int:
        account = self._accounts.get(address)
        return account.lamports if account else 0

    def credit(self, address: Address, lamports: int) -> None:
        if lamports < 0:
            raise HostError("credit amount must be non-negative")
        self.account(address).lamports += lamports

    def debit(self, address: Address, lamports: int) -> None:
        if lamports < 0:
            raise HostError("debit amount must be non-negative")
        account = self.account(address)
        if account.lamports < lamports:
            raise InsufficientFundsError(
                f"{address.short()} has {account.lamports} lamports, needs {lamports}"
            )
        account.lamports -= lamports

    def transfer(self, source: Address, destination: Address, lamports: int) -> None:
        self.debit(source, lamports)
        self.credit(destination, lamports)

    def burn_fee(self, payer: Address, lamports: int) -> None:
        """Collect a fee (tracked so experiments can account total spend)."""
        self.debit(payer, lamports)
        self.burned_fees += lamports

    def allocate(self, payer: Address, address: Address, size: int, owner: Address) -> Account:
        """Create a data account of ``size`` bytes, funding its
        rent-exemption deposit from ``payer`` (§V-D)."""
        if size > MAX_ACCOUNT_BYTES:
            raise AccountSizeError(
                f"requested {size} bytes exceeds the {MAX_ACCOUNT_BYTES}-byte account limit"
            )
        account = self.account(address)
        if account.size:
            raise HostError(f"account {address.short()} already allocated")
        deposit = rent_exempt_deposit(size)
        self.transfer(payer, address, deposit)
        account.size = size
        account.owner = owner
        return account

    def remove(self, address: Address) -> None:
        """Delete an account entirely (transaction rollback of a
        just-created account — unlike :meth:`deallocate`, nothing is
        refunded because nothing survives)."""
        self._accounts.pop(address, None)

    def deallocate(self, address: Address, refund_to: Address) -> int:
        """Delete an account's data, refunding the rent deposit.

        Models the recovery path §V-D mentions ("the assets can be
        recovered when the account is shrunk or deleted").
        """
        account = self.account(address)
        refund = account.lamports
        account.lamports = 0
        account.data = b""
        account.size = 0
        account.owner = None
        self.credit(refund_to, refund)
        return refund

    def __iter__(self) -> Iterator[Account]:
        return iter(self._accounts.values())

    def __len__(self) -> int:
        return len(self._accounts)
