"""ICS-20: fungible token transfer over IBC.

The canonical IBC application, and the workload behind the paper's
evaluation (packets carrying cross-chain token transfers between Solana
and Picasso).  Semantics follow the spec's denom-tracing rules:

* a *native* token leaving the chain is **escrowed**; the destination
  mints a **voucher** whose denom is prefixed with the destination's
  ``port/channel``;
* a voucher heading back to its origin is **burned** on send; the origin
  recognises the returning denom by its own ``source port/channel``
  prefix on the wire and releases the escrow;
* a failed or timed-out transfer refunds the sender (un-escrow or
  re-mint, depending on which path the send took).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding import Reader, encode_str, encode_varint
from repro.errors import IbcError
from repro.ibc.host import IbcApp
from repro.ibc.identifiers import ChannelId, PortId
from repro.ibc.packet import Acknowledgement, Packet


class Bank:
    """Minimal multi-denomination ledger: (address, denom) -> amount."""

    def __init__(self) -> None:
        self._balances: dict[tuple[str, str], int] = {}

    def balance(self, address: str, denom: str) -> int:
        return self._balances.get((address, denom), 0)

    def mint(self, address: str, denom: str, amount: int) -> None:
        if amount < 0:
            raise IbcError("cannot mint a negative amount")
        self._balances[(address, denom)] = self.balance(address, denom) + amount

    def burn(self, address: str, denom: str, amount: int) -> None:
        current = self.balance(address, denom)
        if amount < 0 or current < amount:
            raise IbcError(
                f"{address} holds {current} {denom}, cannot burn {amount}"
            )
        remaining = current - amount
        if remaining:
            self._balances[(address, denom)] = remaining
        else:
            self._balances.pop((address, denom), None)

    def transfer(self, source: str, destination: str, denom: str, amount: int) -> None:
        self.burn(source, denom, amount)
        self.mint(destination, denom, amount)

    def total_supply(self, denom: str) -> int:
        return sum(
            amount for (_, d), amount in self._balances.items() if d == denom
        )

    def balances(self) -> dict[tuple[str, str], int]:
        """Snapshot of every (address, denom) -> amount entry (what the
        fabric conservation checker sums over)."""
        return dict(self._balances)


@dataclass(frozen=True, slots=True)
class FungibleTokenPacketData:
    """The ICS-20 packet payload."""

    denom: str
    amount: int
    sender: str
    receiver: str

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += encode_str(self.denom)
        out += encode_varint(self.amount)
        out += encode_str(self.sender)
        out += encode_str(self.receiver)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FungibleTokenPacketData":
        reader = Reader(data)
        parsed = cls(
            denom=reader.read_str(),
            amount=reader.read_varint(),
            sender=reader.read_str(),
            receiver=reader.read_str(),
        )
        reader.expect_end()
        return parsed


class RateLimiter:
    """Sliding-window inbound value limit (§VI-C).

    The paper's damage-limitation advice: "implementers should rate
    limit the light clients" so a compromised counterparty cannot drain
    everything before humans react.  This limiter caps the token value a
    channel may *receive* per window; packets over the budget are
    rejected with an error ack (refunding the sender) rather than
    dropped.
    """

    def __init__(self, max_amount: int, window_seconds: float, clock) -> None:
        if max_amount <= 0 or window_seconds <= 0:
            raise IbcError("rate limit needs a positive amount and window")
        self.max_amount = max_amount
        self.window_seconds = window_seconds
        self._clock = clock
        self._entries: list[tuple[float, int]] = []

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        self._entries = [(t, a) for t, a in self._entries if t > horizon]

    def allow(self, amount: int) -> bool:
        """Consume budget for ``amount`` if available."""
        now = self._clock()
        self._prune(now)
        if sum(a for _, a in self._entries) + amount > self.max_amount:
            return False
        self._entries.append((now, amount))
        return True


class TransferApp(IbcApp):
    """The ICS-20 application bound to a chain's ``transfer`` port."""

    def __init__(self, bank: Bank, port_id: PortId,
                 rate_limiter: "RateLimiter | None" = None) -> None:
        self.bank = bank
        self.port_id = port_id
        #: Optional §VI-C inbound value limiter.
        self.rate_limiter = rate_limiter

    def escrow_address(self, channel_id: ChannelId) -> str:
        return f"escrow/{self.port_id}/{channel_id}"

    def voucher_denom(self, channel_id: ChannelId, base_denom: str) -> str:
        """The denom a foreign token circulates under on this chain."""
        return f"{self.port_id}/{channel_id}/{base_denom}"

    def _local_prefix(self, channel_id: ChannelId) -> str:
        return f"{self.port_id}/{channel_id}/"

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def make_payload(self, channel_id: ChannelId, denom: str, amount: int,
                     sender: str, receiver: str) -> bytes:
        """Escrow-or-burn locally and return the packet payload to send.

        Callers pass the returned bytes to their chain's ``send_packet``
        over the same ``channel_id``.
        """
        if amount <= 0:
            raise IbcError("transfer amount must be positive")
        prefix = self._local_prefix(channel_id)
        if denom.startswith(prefix):
            # A voucher returning to its origin: burn it here; the wire
            # carries the full prefixed denom so the origin can recognise
            # it by the (source port, source channel) prefix.
            self.bank.burn(sender, denom, amount)
        else:
            # A native token leaving: lock it in this channel's escrow.
            self.bank.transfer(sender, self.escrow_address(channel_id), denom, amount)
        data = FungibleTokenPacketData(denom, amount, sender, receiver)
        return data.to_bytes()

    def _refund(self, packet: Packet) -> None:
        try:
            data = FungibleTokenPacketData.from_bytes(packet.payload)
        except ValueError:
            # Not an ICS-20 payload: it never passed through
            # make_payload, so nothing was escrowed or burned.
            return
        if data.denom.startswith(self._local_prefix(packet.source_channel)):
            # The send burned a voucher: re-mint it.
            self.bank.mint(data.sender, data.denom, data.amount)
        else:
            # The send escrowed a native token: release it.
            self.bank.transfer(
                self.escrow_address(packet.source_channel),
                data.sender, data.denom, data.amount,
            )

    # ------------------------------------------------------------------
    # IbcApp callbacks
    # ------------------------------------------------------------------

    def on_recv(self, packet: Packet) -> Acknowledgement:
        try:
            data = FungibleTokenPacketData.from_bytes(packet.payload)
        except (ValueError, IbcError) as exc:
            return Acknowledgement.error(f"malformed ICS-20 payload: {exc}")
        if self.rate_limiter is not None and not self.rate_limiter.allow(data.amount):
            return Acknowledgement.error(
                "inbound transfer rate limit exceeded (SVI-C safety cap); "
                "retry after the window passes"
            )
        returning_prefix = f"{packet.source_port}/{packet.source_channel}/"
        try:
            if data.denom.startswith(returning_prefix):
                # Our native token coming home: strip the sender's prefix
                # and release this channel's escrow.
                base_denom = data.denom[len(returning_prefix):]
                self.bank.transfer(
                    self.escrow_address(packet.destination_channel),
                    data.receiver, base_denom, data.amount,
                )
            else:
                # A foreign token arriving: mint its voucher here.
                voucher = self.voucher_denom(packet.destination_channel, data.denom)
                self.bank.mint(data.receiver, voucher, data.amount)
        except IbcError as exc:
            return Acknowledgement.error(str(exc))
        return Acknowledgement.ok()

    def on_acknowledge(self, packet: Packet, ack: Acknowledgement) -> None:
        if not ack.success:
            self._refund(packet)

    def on_timeout(self, packet: Packet) -> None:
        self._refund(packet)
