"""Chain endpoints: what the relayer needs from each side of a link.

The relayer is a chain-agnostic courier (Alg. 2, §III-C): from either
chain it needs only to *read what a block wrote*, *get a proof at a
height* and *submit a datagram*.  The two endpoint kinds hide how their
chain does each of those:

* :class:`GuestEnd` — a Guest Contract.  Observed through host events
  tagged with the guest's chain id, proven against the frozen state view
  of a *finalised* guest block, written to through ``GuestApi`` bundles.
* :class:`CounterpartyEnd` — an IBC-native chain.  Observed at each of
  its blocks (``chain.on_block``), proven at any height it keeps,
  written to by queueing a call for its next block.

Either chain's IBC module indexes its packet writes by the height of the
block that commits them (``IbcHost.writes``) and keeps the sends still
committed (``IbcHost.standing``); that index, a receipt probe of the
store (``has_receipt``) and the block clocks (``time``) are all the
relayer reads, and each chain keeps them only from the lowest height
one of its relayers can still reach (``Relayer._floor``).  A
guest↔counterparty link is ``(GuestEnd, CounterpartyEnd)``; a
guest↔guest link is ``(GuestEnd, GuestEnd)``.  Each end also carries the
link's handshake results on its chain (client, connection, channels) and
records nothing its chain already says.
"""

from __future__ import annotations

from collections import deque
from functools import partial
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
        #: The relayer's floor on this chain (``Relayer._floor``): no
        #: block below it owes the peer anything, and of the block at it
        #: only the (kind, packet) entries in ``floor_due`` may (None:
        #: not read yet).  Derived from the two chains alone, so a crash
        #: keeps it.
        self.floor = 0
        self.floor_due: Optional[deque] = None

    def reset(self) -> None:
        """Drop everything a relayer crash loses."""

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
        timeout?  The commitment is cleared when either is accepted, and
        the send leaves the chain's ``standing`` index with it."""
        return (packet.source_channel, packet.sequence) in self.ibc.standing

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
        #: [(height, action(height))]: handshake steps waiting for the
        #: block that commits them to be finalised; run behind that
        #: block's one cover.
        self.waiters: list[tuple[int, Callable[[int], None]]] = []
        #: (datagram kind, continuation) of the handshake step in flight.
        self.handshake_waiter: Optional[tuple[str, Callable]] = None
        #: Pending (op, span) pairs awaiting the next delivery flush,
        #: and ack confirmations awaiting a coalesced CONFIRM_ACK flush.
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

    def time(self, height: int) -> float:
        """Clock of the block at ``height`` (before genesis: -inf)."""
        return (self.contract.block_at(height).header.timestamp
                if height >= 0 else float("-inf"))

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
        heights = [msg.proof_height] if hasattr(msg, "proof_height") else []
        self.api.submit_handshake(msg, partial(self._handshake_done, waiter, failed),
                                  self.updates.prelude(heights))

    def _handshake_done(self, waiter, failed: Callable[[object], None],
                        result) -> None:
        if not result.success and self.handshake_waiter is waiter:
            self.handshake_waiter = None
            failed(result.error)


class CounterpartyEnd(_End):
    """An IBC-native chain, observed block by block."""

    hop_span = "packet.deliver_to_guest"

    def __init__(self, chain: CounterpartyChain, client_id: ClientId) -> None:
        super().__init__(client_id)
        self.chain = chain

    @property
    def chain_id(self) -> str:
        return self.chain.config.chain_id

    @property
    def ibc(self):
        return self.chain.ibc

    def view(self, height: int) -> ProvableStore:
        return self.chain.store_at(height)

    def latest_final(self) -> int:
        """Every committed block is final (Tendermint)."""
        return self.chain.height

    def time(self, height: int) -> float:
        """Clock of the block at ``height`` (before the first: -inf).
        A block below the chain's floor is gone:
        :class:`~repro.errors.UnknownBlockError`."""
        return (self.chain.block(height).header.time
                if height >= 1 else float("-inf"))

    def submit_handshake(self, msg, then: Callable[[Optional[str], int], None],
                         failed: Callable[[object], None]) -> None:
        """Queue a handshake datagram for the next block; ``then(created,
        height)`` once it executed, ``failed(error)`` if it was rejected."""
        self.chain.submit(partial(apply_handshake, self.ibc, msg),
                          on_result=partial(_handshake_result, then, failed))

    def apply(self, op):
        """Run one packet datagram (a relayer's ``BatchOp``) in this
        chain's block: the call the relayer queues for it."""
        ibc = self.ibc
        if op.kind == "recv":
            return ibc.recv_packet(op.packet, op.proof, op.proof_height,
                                   local_time=self.chain.sim.now)
        if op.kind == "ack":
            return ibc.acknowledge_packet(op.packet, op.ack, op.proof,
                                          op.proof_height)
        return ibc.timeout_packet(op.packet, op.proof, op.proof_height)


def _handshake_result(then: Callable[[Optional[str], int], None],
                      failed: Callable[[object], None], result,
                      height: int) -> None:
    if isinstance(result, ReproError):
        failed(result)
    else:
        then(result, height)
