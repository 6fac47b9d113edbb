"""Chain endpoints: what the relayer needs from each side of a link.

The relayer is a chain-agnostic courier (Alg. 2, §III-C): from either
chain it needs only to *see what was committed*, *get a proof at a
height* and *submit a datagram*.  The two endpoint kinds hide how their
chain does each of those:

* :class:`GuestEnd` — a Guest Contract.  Observed through host events
  tagged with the guest's chain id, proven against the frozen state view
  of a *finalised* guest block, written to through ``GuestApi`` bundles.
* :class:`CounterpartyEnd` — an IBC-native chain.  Observed at each of
  its blocks (``chain.on_block``) through a cursor over its send queue,
  proven at any committed height, written to by queueing a call for its
  next block.

A guest↔counterparty link is ``(GuestEnd, CounterpartyEnd)``; a
guest↔guest link is ``(GuestEnd, GuestEnd)``.  Each end also carries the
link's handshake results on its chain (client, connection, channels).
An end records nothing its chain already says: after a crash the
relayer finds what is still owed through the same probes
(``has_commitment``, ``has_receipt``, ``ack_height``, ``read_sends``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.counterparty.chain import CounterpartyChain
from repro.errors import ReproError, SealedNodeError
from repro.guest.api import GuestApi
from repro.guest.contract import GuestContract
from repro.host.events import HostEvent
from repro.ibc import commitment as paths
from repro.ibc.identifiers import ChannelId, ClientId, ConnectionId, PortId
from repro.ibc.messages import apply_handshake
from repro.ibc.packet import Packet
from repro.trie.store import ProvableStore


def packet_key(channel: ChannelId, sequence: int) -> tuple[str, int]:
    """How the relayer keys an in-flight packet on one of its ends."""
    return (str(channel), sequence)


def probe(store: ProvableStore, prefix: str, sequence: int, sealed: bool) -> bool:
    """Is ``prefix/sequence`` in ``store``?  A sealed entry was processed
    and pruned (§III-A), so the caller says what that implies: a sealed
    receipt exists (``sealed=True``), a sealed commitment is gone."""
    try:
        return store.contains_seq(prefix, sequence)
    except SealedNodeError:
        return sealed


class _End:
    """What both endpoint kinds share: the handshake results on this
    chain, the channel filters, and the idempotency probes."""

    def __init__(self, client_id: ClientId) -> None:
        #: This chain's light client *of the peer chain*.
        self.client_id = client_id
        self.connection_id: Optional[ConnectionId] = None
        #: Every channel end this link opened on this chain.  One link
        #: can multiplex several channels (§III-A); the filters test
        #: membership here, never just the latest channel.
        self.channels: set[tuple[PortId, ChannelId]] = set()
        #: How this chain's client of the peer is advanced; set by the
        #: relayer (:func:`repro.relayer.updates.updates_for`).
        self.updates: Any = None

    @property
    def client(self):
        return self.ibc.client(self.client_id)

    def client_claim(self) -> bytes:
        """What this chain's client claims about the peer — the peer
        validates it on-chain (ICS-03 ``validate_self_client``).  A
        client that trusts no validator set yet (the guest's chunked
        Tendermint client before its first update) has no claim."""
        summary = self.client.state_summary()
        return summary.to_bytes() if summary.trusted_set_hash else b""

    def sends(self, packet: Packet) -> bool:
        """Is this outbound packet on one of the link's channels?
        Before any channel opens every packet is carried, preserving the
        single-link behaviour."""
        return not self.channels or (
            packet.source_port, packet.source_channel) in self.channels

    def receives(self, packet: Packet) -> bool:
        return not self.channels or (
            packet.destination_port, packet.destination_channel) in self.channels

    def has_commitment(self, packet: Packet) -> bool:
        """Is the packet this chain sent still awaiting its ack or
        timeout?  The commitment is cleared when either is accepted."""
        return probe(
            self.ibc.store,
            paths.commitment_prefix(packet.source_port, packet.source_channel),
            packet.sequence, sealed=False)

    def has_receipt(self, packet: Packet) -> bool:
        """Did this chain already receive the packet?"""
        return probe(
            self.ibc.store,
            paths.receipt_prefix(packet.destination_port,
                                 packet.destination_channel),
            packet.sequence, sealed=True)


class GuestEnd(_End):
    """A guest contract on the host chain."""

    #: Trace span covering "finalised here -> received by the peer".
    hop_span = "fabric.hop"

    def __init__(self, contract: GuestContract, api: GuestApi,
                 client_id: ClientId) -> None:
        super().__init__(client_id)
        self.contract = contract
        self.api = api
        self.batch_flush_handle = self.confirm_flush_handle = None
        self.reset()

    def reset(self) -> None:
        """Drop everything a relayer crash loses."""
        #: [(height, action(height))]: continuations waiting for the
        #: block that commits a guest-side write (a handshake step, an
        #: ack) to be finalised; run behind that block's one cover.
        self.waiters: list[tuple[int, Callable[[int], None]]] = []
        #: Finalised sends awaiting their ack or timeout.
        self.outstanding: dict[tuple[str, int], Packet] = {}
        #: (datagram kind, continuation) of the handshake step in flight.
        self.handshake_waiter: Optional[tuple[str, Callable]] = None
        #: Pending (op, span) pairs awaiting a batched flush, and ack
        #: confirmations awaiting a coalesced CONFIRM_ACK flush.
        self.pending_batch: list = []
        self.pending_confirms: list[tuple[str, str, int]] = []
        for handle in (self.batch_flush_handle, self.confirm_flush_handle):
            if handle is not None:
                handle.cancel()
        self.batch_flush_handle = self.confirm_flush_handle = None

    @property
    def chain_id(self) -> str:
        return self.contract.chain_id

    @property
    def ibc(self):
        return self.contract.ibc

    def observes(self, event: HostEvent) -> bool:
        """Host events carry a ``guest`` chain-id tag so N guests can
        share one host without their relayers cross-firing."""
        return event.payload.get("guest", self.chain_id) == self.chain_id

    def view(self, height: int) -> ProvableStore:
        """Frozen store of a finalised height (what proofs are made
        against)."""
        return self.contract.state_view(height)

    def latest_final(self) -> int:
        """Highest finalised height (genesis is finalised, so one
        exists once the contract is initialized)."""
        return next((block.height for block in reversed(self.contract.blocks)
                     if block.finalised), 0)

    def expired_height(self, deadline: float) -> Optional[int]:
        """Lowest finalised height whose clock is past ``deadline`` —
        where a receipt's absence proves a timeout."""
        return next((block.height for block in self.contract.blocks
                     if block.finalised and block.header.timestamp > deadline), None)

    def ack_height(self, packet: Packet) -> int:
        """Height of the block that commits the ack this guest wrote for
        ``packet``: the lowest whose state view holds it (the next block
        if none does yet) — what a ``PacketReceived`` event names."""
        prefix = paths.ack_prefix(packet.destination_port,
                                  packet.destination_channel)
        height = self.contract.head.height + 1
        while probe(self.view(height - 1), prefix, packet.sequence, sealed=True):
            height -= 1
        return height

    def take_waiters(self, height: int) -> list[tuple[int, Callable[[int], None]]]:
        ready = [w for w in self.waiters if w[0] <= height]
        self.waiters = [w for w in self.waiters if w[0] > height]
        return ready

    def submit_handshake(self, msg, then: Callable[[Optional[str], int], None],
                         failed: Callable[[object], None]) -> None:
        """Ship a handshake datagram behind the update its proof height
        needs (:meth:`ClientUpdates.prelude`); ``then(created, height)``
        fires on its ``HandshakeStep`` event, which names the height of
        the block that commits the step (see the relayer),
        ``failed`` on a failed receipt — a step that fails emits no
        event.  Raises :class:`~repro.errors.HostUnavailableError`
        during a blackout."""
        waiter = (type(msg).__name__, then)
        self.handshake_waiter = waiter

        def on_done(result) -> None:
            if not result.success and self.handshake_waiter is waiter:
                self.handshake_waiter = None
                failed(result.error)

        heights = [msg.proof_height] if hasattr(msg, "proof_height") else []
        self.api.submit_handshake(msg, on_done, self.updates.prelude(heights))


class CounterpartyEnd(_End):
    """An IBC-native chain, observed block by block through a cursor
    over its send queue."""

    hop_span = "packet.deliver_to_guest"

    def __init__(self, chain: CounterpartyChain, client_id: ClientId) -> None:
        super().__init__(client_id)
        self.chain = chain
        #: How many sends of the chain's queue the relayer has read.  It
        #: moves only while the relayer is up, and a crash keeps it: a
        #: restart re-reads the sends below it from the chain.
        self._seen = 0

    def reset(self) -> None:
        """A crash loses nothing here: the cursor counts what the chain
        holds, not what the relayer did with it."""

    @property
    def chain_id(self) -> str:
        return self.chain.config.chain_id

    @property
    def ibc(self):
        return self.chain.ibc

    def view(self, height: int) -> ProvableStore:
        return self.chain.store_at(height)

    @property
    def height(self) -> int:
        return self.chain.height

    def ack_height(self, packet: Packet) -> int:
        """A write is provable at the chain's current height."""
        return self.height

    def submit_handshake(self, msg, then: Callable[[Optional[str], int], None],
                         failed: Callable[[object], None]) -> None:
        """Queue a handshake datagram for the next block; ``then(created,
        height)`` once it executed, ``failed(error)`` if it was rejected."""
        def on_result(result, height: int) -> None:
            if isinstance(result, ReproError):
                failed(result)
            else:
                then(result, height)

        self.chain.submit(lambda: apply_handshake(self.ibc, msg),
                          on_result=on_result)

    def fresh_sends(self) -> list[tuple[Packet, int]]:
        """Advance the cursor; returns the link's new sends with
        the height each was committed at."""
        fresh = self.chain.sent_packets_since(self._seen)
        self._seen += len(fresh)
        return [(packet, height) for packet, height in fresh if self.sends(packet)]

    def read_sends(self) -> list[tuple[Packet, int]]:
        """The link's sends the cursor has passed, with their heights."""
        return [(packet, height) for packet, height
                in self.chain.sent_packets[:self._seen] if self.sends(packet)]
