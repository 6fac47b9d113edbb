"""The IBC module: clients, handshakes and the packet lifecycle.

One :class:`IbcHost` embeds in each chain and owns that chain's provable
store.  Every cross-chain claim is checked against a light-client-
verified root: connection/channel handshake steps prove the counterparty
stored the expected end, ``recv_packet`` proves the sender committed the
packet, ``acknowledge_packet`` proves the receiver wrote the ack, and
``timeout_packet`` proves the receiver *never* wrote a receipt.

Storage discipline (the paper's bounded-state story, §III-A):

* packet commitments are **deleted** on acknowledgement or timeout;
* packet receipts are **sealed** once the lagged-sealing rule allows
  (when a ``seal_scheduler`` is set, as in the Guest Contract) — the sealed
  stub is what rejects double delivery;
* acknowledgements are **sealed** once the sender has confirmed them
  (``confirm_ack``) and the same rule allows.

The *lagged-sealing rule* (see :class:`_SequenceTracker`) refines the
paper's "saves it in the trie and then seals its node": sealing entry
``m`` is deferred until all entries up to ``m + 1`` exist, because a
sealed leaf prunes its whole compressed key-path and would otherwise
block the insertion of a neighbouring sequence that is still in flight.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from repro.errors import (
    ChannelError,
    ClientError,
    DoubleDeliveryError,
    HandshakeError,
    PacketError,
    SealedNodeError,
    TimeoutError_,
)
from repro.ibc import commitment as paths
from repro.ibc.channel import ChannelEnd, ChannelOrder, ChannelState
from repro.ibc.client import LightClient
from repro.ibc.connection import ConnectionEnd, ConnectionState
from repro.ibc.identifiers import ChannelId, ClientId, ConnectionId, PortId
from repro.ibc.packet import RECEIPT_VALUE, Acknowledgement, Packet
from repro.state.scheduler import SealScheduler
from repro.trie.proof import MembershipProof, NonMembershipProof
from repro.trie.store import ProvableStore, path_key, seq_key


class _SequenceTracker:
    """Decides when a sequenced entry may be *sealed* safely.

    Sealing a leaf prunes its whole compressed path, so a sealed entry
    for sequence ``m`` can block a *later insert* of a nearby sequence.
    Two facts make sealing safe (proof in DESIGN.md):

    * a key **greater** than ``m`` already exists in the subtree — then
      every future (higher) sequence diverges at or above ``m``'s branch
      point; and
    * every key **lower** than ``m`` already exists — then no earlier
      sequence can still arrive underneath the sealed leaf.

    Both hold exactly when ``m + 1 < watermark``, where the watermark is
    the end of the contiguous received prefix.  The tracker maintains
    that watermark and yields the sequences that became sealable.
    """

    __slots__ = ("watermark", "pending", "unsealed")

    def __init__(self) -> None:
        self.watermark = 0           # all sequences < watermark are present
        self.pending: set[int] = set()    # present sequences >= watermark
        self.unsealed: set[int] = set()   # present but not yet sealed

    def record(self, sequence: int, consume: bool = True) -> list[int]:
        """Note that ``sequence``'s entry was written; return the
        sequences now safe to seal (in increasing order).

        With ``consume=False`` the sealable entries stay tracked — used
        for acks, which additionally wait for the sender's confirmation
        before actually being sealed.
        """
        self.pending.add(sequence)
        self.unsealed.add(sequence)
        while self.watermark in self.pending:
            self.pending.remove(self.watermark)
            self.watermark += 1
        sealable = sorted(s for s in self.unsealed if s + 1 < self.watermark)
        if consume:
            for s in sealable:
                self.unsealed.remove(s)
        return sealable


class Write(NamedTuple):
    """One packet write, named by the height of the block committing it:
    ``"send"`` (a commitment), ``"ack"`` (an ack written, ``ack`` set)
    or ``"acked"`` (a commitment an accepted ack cleared)."""

    kind: str
    packet: Packet
    height: int
    ack: Optional[Acknowledgement] = None


class IbcApp:
    """Application callbacks bound to a port (ICS-05/ICS-26 style)."""

    def on_recv(self, packet: Packet) -> Acknowledgement:
        """Handle a delivered packet; the returned ack is committed."""
        return Acknowledgement.ok()

    def on_acknowledge(self, packet: Packet, ack: Acknowledgement) -> None:
        """The counterparty acknowledged our packet."""

    def on_timeout(self, packet: Packet) -> None:
        """Our packet timed out and was never delivered."""


@dataclass
class IbcCounters:
    """Protocol statistics the experiments read."""

    packets_sent: int = 0
    packets_received: int = 0
    packets_acknowledged: int = 0
    packets_timed_out: int = 0
    double_deliveries_rejected: int = 0


class IbcHost:
    """The per-chain IBC module."""

    def __init__(self, chain_id: str, *, write_height: Callable[[], int],
                 clock: Callable[[], float],
                 store: Optional[ProvableStore] = None,
                 seal_scheduler: Optional["SealScheduler"] = None) -> None:
        self.chain_id = chain_id
        self.store = store if store is not None else ProvableStore()
        #: Policy deciding *when* safe entries actually get sealed; the
        #: lagged-sealing rule below decides *which* are safe.  Sealing
        #: is root-neutral, so the policy never affects consensus.
        #: ``None``: this chain never seals (an IBC-native counterparty).
        self.seal_scheduler = seal_scheduler
        self.counters = IbcCounters()
        self.clients: dict[ClientId, LightClient] = {}
        self.connections: dict[ConnectionId, ConnectionEnd] = {}
        self.channels: dict[tuple[PortId, ChannelId], ChannelEnd] = {}
        self.apps: dict[PortId, IbcApp] = {}
        self._next_seq_send: dict[tuple[PortId, ChannelId], int] = {}
        self._next_seq_recv: dict[tuple[PortId, ChannelId], int] = {}
        self._acked: dict[tuple[PortId, ChannelId], set[int]] = {}
        self._receipt_tracker: dict[tuple[PortId, ChannelId], _SequenceTracker] = {}
        self._ack_tracker: dict[tuple[PortId, ChannelId], _SequenceTracker] = {}
        self._ack_confirmed: dict[tuple[PortId, ChannelId], set[int]] = {}
        #: The embedding chain's: the height of the block that commits
        #: the write executing now, and its clock.
        self.write_height = write_height
        self.clock = clock
        #: The write index — ICS-04's height-indexed events, as a relayer
        #: queries them: height -> that block's packet writes in
        #: execution order, and (kind, channel, sequence) -> the write
        #: (a channel id is a ``str``: keys match plain strings).
        self.writes: dict[int, list[Write]] = {}
        self.written: dict[tuple[str, str, int], Write] = {}
        #: Sends still committed, by (source channel, sequence); those
        #: with a deadline also as sorted (deadline, channel, sequence).
        self.standing: dict[tuple[str, int], Write] = {}
        self._deadlines: list[tuple[float, str, int]] = []
        self._client_counter = 0
        self._connection_counter = 0
        self._channel_counter = 0
        #: Optional hook validating the counterparty's claimed view of
        #: *this* chain during connection handshakes — the
        #: validate_self_client check the paper's footnote 2 highlights.
        #: Callable[bytes] raising HandshakeError on a bogus claim.
        self.self_client_validator: Optional[Callable[[bytes], None]] = None
        #: Optional observer invoked with every packet this host sends
        #: (kept for the counterparty's ``sent_packets``, which only the
        #: benchmark harness reads; relayers read :attr:`writes`).
        self.on_send: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # Clients (ICS-02)
    # ------------------------------------------------------------------

    def create_client(self, client: LightClient) -> ClientId:
        client_id = ClientId.sequence(self._client_counter)
        self._client_counter += 1
        self.clients[client_id] = client
        return client_id

    def client(self, client_id: ClientId) -> LightClient:
        client = self.clients.get(client_id)
        if client is None:
            raise ClientError(f"unknown client {client_id}")
        return client

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def bind_port(self, port_id: PortId, app: IbcApp) -> None:
        if port_id in self.apps:
            raise ChannelError(f"port {port_id} already bound")
        self.apps[port_id] = app

    # ------------------------------------------------------------------
    # Connection handshake (ICS-03)
    # ------------------------------------------------------------------

    def conn_open_init(self, client_id: ClientId, counterparty_client_id: ClientId) -> ConnectionId:
        self.client(client_id)  # must exist
        connection_id = ConnectionId.sequence(self._connection_counter)
        self._connection_counter += 1
        end = ConnectionEnd(
            state=ConnectionState.INIT,
            client_id=client_id,
            counterparty_client_id=counterparty_client_id,
            counterparty_connection_id=None,
        )
        self._set_connection(connection_id, end)
        return connection_id

    def conn_open_try(
        self,
        client_id: ClientId,
        counterparty_client_id: ClientId,
        counterparty_connection_id: ConnectionId,
        proof: MembershipProof,
        proof_height: int,
        counterparty_client_state: Optional[bytes] = None,
    ) -> ConnectionId:
        """Open-try: prove the counterparty stored the INIT end and — when
        supplied — validate its client's view of this chain (ICS-03's
        validate_self_client; see repro.ibc.self_client)."""
        self._validate_self_client(counterparty_client_state)
        expected = ConnectionEnd(
            state=ConnectionState.INIT,
            client_id=counterparty_client_id,
            counterparty_client_id=client_id,
            counterparty_connection_id=None,
        )
        self._verify_stored(
            client_id, proof_height,
            paths.connection_path(counterparty_connection_id),
            expected.to_bytes(), proof,
            "counterparty connection INIT",
        )
        connection_id = ConnectionId.sequence(self._connection_counter)
        self._connection_counter += 1
        end = ConnectionEnd(
            state=ConnectionState.TRYOPEN,
            client_id=client_id,
            counterparty_client_id=counterparty_client_id,
            counterparty_connection_id=counterparty_connection_id,
        )
        self._set_connection(connection_id, end)
        return connection_id

    def conn_open_ack(
        self,
        connection_id: ConnectionId,
        counterparty_connection_id: ConnectionId,
        proof: MembershipProof,
        proof_height: int,
        counterparty_client_state: Optional[bytes] = None,
    ) -> None:
        self._validate_self_client(counterparty_client_state)
        end = self.connection(connection_id)
        if end.state != ConnectionState.INIT:
            raise HandshakeError(f"{connection_id} not in INIT (is {end.state.name})")
        expected = ConnectionEnd(
            state=ConnectionState.TRYOPEN,
            client_id=end.counterparty_client_id,
            counterparty_client_id=end.client_id,
            counterparty_connection_id=connection_id,
        )
        self._verify_stored(
            end.client_id, proof_height,
            paths.connection_path(counterparty_connection_id),
            expected.to_bytes(), proof,
            "counterparty connection TRYOPEN",
        )
        updated = end.with_counterparty(counterparty_connection_id).with_state(ConnectionState.OPEN)
        self._set_connection(connection_id, updated)

    def conn_open_confirm(self, connection_id: ConnectionId, proof: MembershipProof, proof_height: int) -> None:
        end = self.connection(connection_id)
        if end.state != ConnectionState.TRYOPEN:
            raise HandshakeError(f"{connection_id} not in TRYOPEN (is {end.state.name})")
        assert end.counterparty_connection_id is not None
        expected = ConnectionEnd(
            state=ConnectionState.OPEN,
            client_id=end.counterparty_client_id,
            counterparty_client_id=end.client_id,
            counterparty_connection_id=connection_id,
        )
        self._verify_stored(
            end.client_id, proof_height,
            paths.connection_path(end.counterparty_connection_id),
            expected.to_bytes(), proof,
            "counterparty connection OPEN",
        )
        self._set_connection(connection_id, end.with_state(ConnectionState.OPEN))

    def _validate_self_client(self, claimed: Optional[bytes]) -> None:
        if claimed is not None and self.self_client_validator is not None:
            self.self_client_validator(claimed)

    def connection(self, connection_id: ConnectionId) -> ConnectionEnd:
        end = self.connections.get(connection_id)
        if end is None:
            raise HandshakeError(f"unknown connection {connection_id}")
        return end

    def _set_connection(self, connection_id: ConnectionId, end: ConnectionEnd) -> None:
        self.connections[connection_id] = end
        self.store.set(paths.connection_path(connection_id), end.to_bytes())

    # ------------------------------------------------------------------
    # Channel handshake (ICS-04)
    # ------------------------------------------------------------------

    def chan_open_init(
        self,
        port_id: PortId,
        connection_id: ConnectionId,
        counterparty_port_id: PortId,
        order: ChannelOrder = ChannelOrder.UNORDERED,
    ) -> ChannelId:
        self._require_port(port_id)
        connection = self.connection(connection_id)
        if connection.state != ConnectionState.OPEN:
            raise HandshakeError(f"connection {connection_id} not OPEN")
        channel_id = ChannelId.sequence(self._channel_counter)
        self._channel_counter += 1
        end = ChannelEnd(
            state=ChannelState.INIT,
            order=order,
            connection_id=connection_id,
            counterparty_port_id=counterparty_port_id,
            counterparty_channel_id=None,
        )
        self._set_channel(port_id, channel_id, end)
        return channel_id

    def chan_open_try(
        self,
        port_id: PortId,
        connection_id: ConnectionId,
        counterparty_port_id: PortId,
        counterparty_channel_id: ChannelId,
        order: ChannelOrder,
        proof: MembershipProof,
        proof_height: int,
    ) -> ChannelId:
        self._require_port(port_id)
        connection = self.connection(connection_id)
        if connection.state != ConnectionState.OPEN:
            raise HandshakeError(f"connection {connection_id} not OPEN")
        assert connection.counterparty_connection_id is not None
        expected = ChannelEnd(
            state=ChannelState.INIT,
            order=order,
            connection_id=connection.counterparty_connection_id,
            counterparty_port_id=port_id,
            counterparty_channel_id=None,
        )
        self._verify_stored(
            connection.client_id, proof_height,
            paths.channel_path(counterparty_port_id, counterparty_channel_id),
            expected.to_bytes(), proof,
            "counterparty channel INIT",
        )
        channel_id = ChannelId.sequence(self._channel_counter)
        self._channel_counter += 1
        end = ChannelEnd(
            state=ChannelState.TRYOPEN,
            order=order,
            connection_id=connection_id,
            counterparty_port_id=counterparty_port_id,
            counterparty_channel_id=counterparty_channel_id,
        )
        self._set_channel(port_id, channel_id, end)
        return channel_id

    def chan_open_ack(
        self,
        port_id: PortId,
        channel_id: ChannelId,
        counterparty_channel_id: ChannelId,
        proof: MembershipProof,
        proof_height: int,
    ) -> None:
        end = self.channel(port_id, channel_id)
        if end.state != ChannelState.INIT:
            raise HandshakeError(f"channel {channel_id} not in INIT (is {end.state.name})")
        connection = self.connection(end.connection_id)
        assert connection.counterparty_connection_id is not None
        expected = ChannelEnd(
            state=ChannelState.TRYOPEN,
            order=end.order,
            connection_id=connection.counterparty_connection_id,
            counterparty_port_id=port_id,
            counterparty_channel_id=channel_id,
        )
        self._verify_stored(
            connection.client_id, proof_height,
            paths.channel_path(end.counterparty_port_id, counterparty_channel_id),
            expected.to_bytes(), proof,
            "counterparty channel TRYOPEN",
        )
        updated = end.with_counterparty(counterparty_channel_id).with_state(ChannelState.OPEN)
        self._set_channel(port_id, channel_id, updated)

    def chan_open_confirm(self, port_id: PortId, channel_id: ChannelId,
                          proof: MembershipProof, proof_height: int) -> None:
        end = self.channel(port_id, channel_id)
        if end.state != ChannelState.TRYOPEN:
            raise HandshakeError(f"channel {channel_id} not in TRYOPEN (is {end.state.name})")
        connection = self.connection(end.connection_id)
        assert connection.counterparty_connection_id is not None
        assert end.counterparty_channel_id is not None
        expected = ChannelEnd(
            state=ChannelState.OPEN,
            order=end.order,
            connection_id=connection.counterparty_connection_id,
            counterparty_port_id=port_id,
            counterparty_channel_id=channel_id,
        )
        self._verify_stored(
            connection.client_id, proof_height,
            paths.channel_path(end.counterparty_port_id, end.counterparty_channel_id),
            expected.to_bytes(), proof,
            "counterparty channel OPEN",
        )
        self._set_channel(port_id, channel_id, end.with_state(ChannelState.OPEN))

    def chan_close_init(self, port_id: PortId, channel_id: ChannelId) -> None:
        """Close our end of a channel (ICS-04).

        In-flight packets can still be acknowledged or timed out — only
        *new* sends and deliveries stop.
        """
        end = self.channel(port_id, channel_id)
        if end.state != ChannelState.OPEN:
            raise ChannelError(f"channel {port_id}/{channel_id} not OPEN")
        self._set_channel(port_id, channel_id, end.with_state(ChannelState.CLOSED))

    def chan_close_confirm(self, port_id: PortId, channel_id: ChannelId,
                           proof: MembershipProof, proof_height: int) -> None:
        """Close our end after proving the counterparty closed theirs."""
        end = self.channel(port_id, channel_id)
        if end.state != ChannelState.OPEN:
            raise ChannelError(f"channel {port_id}/{channel_id} not OPEN")
        connection = self.connection(end.connection_id)
        assert connection.counterparty_connection_id is not None
        assert end.counterparty_channel_id is not None
        expected = ChannelEnd(
            state=ChannelState.CLOSED,
            order=end.order,
            connection_id=connection.counterparty_connection_id,
            counterparty_port_id=port_id,
            counterparty_channel_id=channel_id,
        )
        self._verify_stored(
            connection.client_id, proof_height,
            paths.channel_path(end.counterparty_port_id, end.counterparty_channel_id),
            expected.to_bytes(), proof,
            "counterparty channel CLOSED",
        )
        self._set_channel(port_id, channel_id, end.with_state(ChannelState.CLOSED))

    def channel(self, port_id: PortId, channel_id: ChannelId) -> ChannelEnd:
        end = self.channels.get((port_id, channel_id))
        if end is None:
            raise ChannelError(f"unknown channel {port_id}/{channel_id}")
        return end

    def _set_channel(self, port_id: PortId, channel_id: ChannelId, end: ChannelEnd) -> None:
        self.channels[(port_id, channel_id)] = end
        self.store.set(paths.channel_path(port_id, channel_id), end.to_bytes())

    def _require_port(self, port_id: PortId) -> None:
        if port_id not in self.apps:
            raise ChannelError(f"no app bound to port {port_id}")

    # ------------------------------------------------------------------
    # Packet lifecycle (ICS-04)
    # ------------------------------------------------------------------

    def send_packet(self, port_id: PortId, channel_id: ChannelId,
                    payload: bytes, timeout_timestamp: float = 0.0) -> Packet:
        """Commit an outgoing packet (Alg. 1's SendPacket body).  A
        deadline this chain's clock has passed is refused (ICS-04): the
        receiver's clock, which agrees, is past it too, so the packet
        could only ever time out — and no block of the receiver's
        would come after it to show that."""
        end = self._open_channel(port_id, channel_id)
        if timeout_timestamp and self.clock() > timeout_timestamp:
            raise TimeoutError_(f"deadline {timeout_timestamp} already passed")
        assert end.counterparty_channel_id is not None
        key = (port_id, channel_id)
        sequence = self._next_seq_send.get(key, 0)
        self._next_seq_send[key] = sequence + 1
        packet = Packet(
            sequence=sequence,
            source_port=port_id,
            source_channel=channel_id,
            destination_port=end.counterparty_port_id,
            destination_channel=end.counterparty_channel_id,
            payload=payload,
            timeout_timestamp=timeout_timestamp,
        )
        self.store.set_seq(
            paths.commitment_prefix(port_id, channel_id), sequence, packet.commitment(),
        )
        key = (channel_id, sequence)
        self.standing[key] = self._record("send", packet, channel_id)
        if timeout_timestamp:
            insort(self._deadlines, (timeout_timestamp, *key))
        self.counters.packets_sent += 1
        if self.on_send is not None:
            self.on_send(packet)
        return packet

    def recv_packet(self, packet: Packet, proof: MembershipProof, proof_height: int,
                    local_time: float = 0.0) -> Acknowledgement:
        """Verify and deliver an incoming packet (Alg. 1's ReceivePacket)."""
        end = self._open_channel(packet.destination_port, packet.destination_channel)
        if (end.counterparty_port_id != packet.source_port
                or end.counterparty_channel_id != packet.source_channel):
            raise PacketError("packet routed through the wrong channel")
        if packet.timeout_timestamp and local_time > packet.timeout_timestamp:
            raise TimeoutError_(
                f"packet {packet.sequence} expired at {packet.timeout_timestamp}"
            )

        connection = self.connection(end.connection_id)
        client = self.client(connection.client_id)
        commitment_key = seq_key(
            paths.commitment_prefix(packet.source_port, packet.source_channel),
            packet.sequence,
        )
        if not client.verify_key_membership(
            proof_height, commitment_key, packet.commitment(), proof,
        ):
            raise PacketError(
                f"invalid commitment proof for packet {packet.sequence} "
                f"at height {proof_height}"
            )

        receipt_prefix = paths.receipt_prefix(
            packet.destination_port, packet.destination_channel,
        )
        # Double-delivery guard (Alg. 1 line `assert ph not in trie`): a
        # sealed receipt raises SealedNodeError, which is precisely the
        # "cannot access -> already delivered" behaviour of §III-A.
        try:
            already = self.store.contains_seq(receipt_prefix, packet.sequence)
        except SealedNodeError:
            already = True
        if already:
            self.counters.double_deliveries_rejected += 1
            raise DoubleDeliveryError(
                f"packet {packet.sequence} on {packet.destination_channel} already received"
            )

        if end.order == ChannelOrder.ORDERED:
            expected = self._next_seq_recv.get(
                (packet.destination_port, packet.destination_channel), 0,
            )
            if packet.sequence != expected:
                raise PacketError(
                    f"ordered channel expected sequence {expected}, got {packet.sequence}"
                )
            self._next_seq_recv[(packet.destination_port, packet.destination_channel)] = expected + 1

        self.store.set_seq(receipt_prefix, packet.sequence, RECEIPT_VALUE)
        destination = (packet.destination_port, packet.destination_channel)
        if self.seal_scheduler is not None:
            tracker = self._receipt_tracker.setdefault(destination, _SequenceTracker())
            for sealable in tracker.record(packet.sequence):
                self.seal_scheduler.offer(receipt_prefix, sealable)
            self._drain_seals()

        app = self.apps[packet.destination_port]
        ack = app.on_recv(packet)
        self.store.set_seq(
            paths.ack_prefix(packet.destination_port, packet.destination_channel),
            packet.sequence,
            ack.commitment(),
        )
        if self.seal_scheduler is not None:
            tracker = self._ack_tracker.setdefault(destination, _SequenceTracker())
            tracker.record(packet.sequence, consume=False)
            self._seal_confirmed_acks(destination)
        self._record("ack", packet, packet.destination_channel, ack)
        self.counters.packets_received += 1
        return ack

    def acknowledge_packet(self, packet: Packet, ack: Acknowledgement,
                           proof: MembershipProof, proof_height: int) -> None:
        """Process the receiver's ack: prove it, clear our commitment.

        Allowed on CLOSED channels too: closing stops new traffic, but
        in-flight packets must still settle.
        """
        end = self._open_channel(packet.source_port, packet.source_channel,
                                 allow_closed=True)
        connection = self.connection(end.connection_id)
        client = self.client(connection.client_id)
        ack_key = seq_key(
            paths.ack_prefix(packet.destination_port, packet.destination_channel),
            packet.sequence,
        )
        if not client.verify_key_membership(proof_height, ack_key, ack.commitment(), proof):
            raise PacketError(
                f"invalid ack proof for packet {packet.sequence} at height {proof_height}"
            )
        commitment_prefix = paths.commitment_prefix(packet.source_port, packet.source_channel)
        if not self.store.contains_seq(commitment_prefix, packet.sequence):
            raise PacketError(f"packet {packet.sequence} has no outstanding commitment")
        # Deleting the commitment bounds the sender-side state (§III-A).
        self.store.delete_seq(commitment_prefix, packet.sequence)
        self._clear(packet)
        self._record("acked", packet, packet.source_channel)
        self._acked.setdefault((packet.source_port, packet.source_channel), set()).add(packet.sequence)
        self.apps[packet.source_port].on_acknowledge(packet, ack)
        self.counters.packets_acknowledged += 1

    def timeout_packet(self, packet: Packet, proof: NonMembershipProof, proof_height: int) -> None:
        """Cancel an expired packet: prove the receiver never got it."""
        end = self._open_channel(packet.source_port, packet.source_channel,
                                 allow_closed=True)
        connection = self.connection(end.connection_id)
        client = self.client(connection.client_id)
        if not packet.timeout_timestamp:
            raise TimeoutError_("packet has no timeout")
        counterparty_time = client.consensus_timestamp(proof_height)
        if counterparty_time is None or counterparty_time <= packet.timeout_timestamp:
            raise TimeoutError_(
                f"counterparty time at height {proof_height} has not passed "
                f"the timeout {packet.timeout_timestamp}"
            )
        receipt_key = seq_key(
            paths.receipt_prefix(packet.destination_port, packet.destination_channel),
            packet.sequence,
        )
        if not client.verify_key_absence(proof_height, receipt_key, proof):
            raise PacketError(
                f"invalid non-receipt proof for packet {packet.sequence}"
            )
        commitment_prefix = paths.commitment_prefix(packet.source_port, packet.source_channel)
        if not self.store.contains_seq(commitment_prefix, packet.sequence):
            raise PacketError(f"packet {packet.sequence} has no outstanding commitment")
        self.store.delete_seq(commitment_prefix, packet.sequence)
        self._clear(packet)
        self.apps[packet.source_port].on_timeout(packet)
        self.counters.packets_timed_out += 1

    def _record(self, kind: str, packet: Packet, channel: ChannelId,
                ack: Optional[Acknowledgement] = None) -> Write:
        write = Write(kind, packet, self.write_height(), ack)
        self.writes.setdefault(write.height, []).append(write)
        self.written[(kind, channel, packet.sequence)] = write
        return write

    def _clear(self, packet: Packet) -> None:
        key = (packet.source_channel, packet.sequence)
        deadline = self.standing.pop(key).packet.timeout_timestamp
        if deadline:  # as sent: the wire keeps milliseconds only
            del self._deadlines[bisect_left(self._deadlines, (deadline, *key))]

    def expiring(self, after: float, until: float) -> list[Packet]:
        """Sends still committed whose deadline is in ``[after, until)``."""
        lo = bisect_left(self._deadlines, (after,))
        hi = bisect_left(self._deadlines, (until,))
        return [self.standing[key[1:]].packet for key in self._deadlines[lo:hi]]

    def awaits_confirm(self, packet: Packet) -> bool:
        """Is the ack this chain wrote for ``packet`` unsealed and not
        yet confirmed?  (Never, on a chain that does not seal.)"""
        key = (packet.destination_port, packet.destination_channel)
        tracker = self._ack_tracker.get(key)
        return (tracker is not None and packet.sequence in tracker.unsealed
                and packet.sequence not in self._ack_confirmed.get(key, ()))

    def unconfirmed_acks(self) -> Iterator[Write]:
        """Every ack this chain wrote that awaits its confirmation."""
        for key, tracker in self._ack_tracker.items():
            confirmed = self._ack_confirmed.get(key, set())
            for sequence in tracker.unsealed - confirmed:
                yield self.written[("ack", key[1], sequence)]

    def confirm_ack(self, port_id: PortId, channel_id: ChannelId, sequence: int) -> None:
        """Mark an acknowledgement as processed by the sender and seal it
        as soon as the lagged-sealing rule allows.

        Permissionless maintenance: once the source chain deleted its
        commitment, the ack will never need to be proven again, so its
        entry can be pruned from storage (§III-A: "only values which are
        no longer needed may be sealed").
        """
        key = (port_id, channel_id)
        self._ack_confirmed.setdefault(key, set()).add(sequence)
        self._seal_confirmed_acks(key)

    def _seal_confirmed_acks(self, key: tuple[PortId, ChannelId]) -> None:
        """Seal every ack that is both confirmed and safely sealable."""
        tracker = self._ack_tracker.get(key)
        confirmed = self._ack_confirmed.get(key)
        if tracker is None or not confirmed:
            return
        port_id, channel_id = key
        ready = sorted(
            s for s in confirmed
            if s in tracker.unsealed and s + 1 < tracker.watermark
        )
        ack_prefix = paths.ack_prefix(port_id, channel_id)
        for sequence in ready:
            self.seal_scheduler.offer(ack_prefix, sequence)
            tracker.unsealed.remove(sequence)
            confirmed.remove(sequence)
        self._drain_seals()

    def _drain_seals(self) -> None:
        """Apply every seal the scheduler releases.

        Loops so budget-driven policies can re-check the store between
        batches; each non-empty batch shrinks the scheduler's queue, so
        the loop terminates.
        """
        scheduler = self.seal_scheduler
        if scheduler is None:
            return
        while True:
            due = scheduler.drain(self.store)
            if not due:
                return
            for prefix, sequence in due:
                self.store.seal_seq(prefix, sequence)

    def _open_channel(self, port_id: PortId, channel_id: ChannelId,
                      allow_closed: bool = False) -> ChannelEnd:
        end = self.channel(port_id, channel_id)
        allowed = (ChannelState.OPEN, ChannelState.CLOSED) if allow_closed else (ChannelState.OPEN,)
        if end.state not in allowed:
            raise ChannelError(f"channel {port_id}/{channel_id} not OPEN")
        return end

    # ------------------------------------------------------------------
    # Proof plumbing
    # ------------------------------------------------------------------

    def _verify_stored(self, client_id: ClientId, height: int, path: str,
                       expected_value: bytes, proof: MembershipProof, what: str) -> None:
        client = self.client(client_id)
        if not client.verify_key_membership(height, path_key(path), expected_value, proof):
            raise HandshakeError(f"proof of {what} failed at height {height}")
