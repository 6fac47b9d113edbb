"""Unit tests for the IBC core: packets, handshakes, packet lifecycle.

Two IbcHosts are wired back-to-back through StaticRootClient instances
whose consensus states the test refreshes from the peers' live store
roots — isolating protocol logic from header verification.
"""

import pytest

from repro.errors import (
    ChannelError,
    DoubleDeliveryError,
    HandshakeError,
    IbcError,
    PacketError,
    TimeoutError_,
)
from repro.ibc import commitment as paths
from repro.ibc.apps.transfer import Bank, FungibleTokenPacketData, TransferApp
from repro.ibc.channel import ChannelOrder, ChannelState
from repro.ibc.connection import ConnectionEnd, ConnectionState
from repro.ibc.host import IbcHost
from repro.ibc.identifiers import ChannelId, ClientId, ConnectionId, PortId
from repro.ibc.packet import Acknowledgement, Packet
from repro.state.scheduler import EagerScheduler

from tests.helpers import StaticRootClient


class Link:
    """Two chains (A = guest-like with sealing, B = plain) linked for
    tests; `sync()` refreshes each side's view of the other's root."""

    def __init__(self):
        self.a = IbcHost("chain-a", seal_scheduler=EagerScheduler())
        self.b = IbcHost("chain-b")
        self.client_ab = StaticRootClient()  # hosted on A, tracks B
        self.client_ba = StaticRootClient()  # hosted on B, tracks A
        self.a_client_id = self.a.create_client(self.client_ab)
        self.b_client_id = self.b.create_client(self.client_ba)
        self.height = 0
        self.port = PortId("transfer")
        self.bank_a, self.bank_b = Bank(), Bank()
        self.app_a = TransferApp(self.bank_a, self.port)
        self.app_b = TransferApp(self.bank_b, self.port)
        self.a.bind_port(self.port, self.app_a)
        self.b.bind_port(self.port, self.app_b)
        # A second port with a trivial always-ok app, for protocol-level
        # tests whose payloads are not ICS-20 structures.
        from repro.ibc.host import IbcApp
        self.echo_port = PortId("echo-app")
        self.a.bind_port(self.echo_port, IbcApp())
        self.b.bind_port(self.echo_port, IbcApp())

    def sync(self, timestamp: float = 0.0) -> int:
        """Commit a "block" on both chains: publish current roots."""
        self.height += 1
        self.client_ab.set_state(self.height, self.b.store.root_hash, timestamp)
        self.client_ba.set_state(self.height, self.a.store.root_hash, timestamp)
        return self.height

    def open(self, order=ChannelOrder.UNORDERED, port=None):
        """Run both full handshakes, proof-checked at every step."""
        self.port = port or self.port
        conn_a = self.a.conn_open_init(self.a_client_id, self.b_client_id)
        h = self.sync()
        proof = self.a.store.prove(paths.connection_path(conn_a))
        conn_b = self.b.conn_open_try(self.b_client_id, self.a_client_id, conn_a, proof, h)
        h = self.sync()
        proof = self.b.store.prove(paths.connection_path(conn_b))
        self.a.conn_open_ack(conn_a, conn_b, proof, h)
        h = self.sync()
        proof = self.a.store.prove(paths.connection_path(conn_a))
        self.b.conn_open_confirm(conn_b, proof, h)

        chan_a = self.a.chan_open_init(self.port, conn_a, self.port, order)
        h = self.sync()
        proof = self.a.store.prove(paths.channel_path(self.port, chan_a))
        chan_b = self.b.chan_open_try(self.port, conn_b, self.port, chan_a, order, proof, h)
        h = self.sync()
        proof = self.b.store.prove(paths.channel_path(self.port, chan_b))
        self.a.chan_open_ack(self.port, chan_a, chan_b, proof, h)
        h = self.sync()
        proof = self.a.store.prove(paths.channel_path(self.port, chan_a))
        self.b.chan_open_confirm(self.port, chan_b, proof, h)
        self.conn_a, self.conn_b = conn_a, conn_b
        self.chan_a, self.chan_b = chan_a, chan_b
        return chan_a, chan_b


@pytest.fixture
def link():
    lk = Link()
    lk.open()
    return lk


class TestPacketTypes:
    def test_packet_roundtrip(self):
        packet = Packet(3, PortId("transfer"), ChannelId("channel-0"),
                        PortId("transfer"), ChannelId("channel-1"),
                        b"payload", 1234.5)
        assert Packet.from_bytes(packet.to_bytes()) == packet

    def test_commitment_binds_fields(self):
        base = Packet(3, PortId("transfer"), ChannelId("channel-0"),
                      PortId("transfer"), ChannelId("channel-1"), b"x", 0.0)
        import dataclasses
        tweaks = [
            dataclasses.replace(base, sequence=4),
            dataclasses.replace(base, payload=b"y"),
            dataclasses.replace(base, timeout_timestamp=1.0),
            dataclasses.replace(base, destination_channel=ChannelId("channel-9")),
        ]
        assert base.commitment() not in {t.commitment() for t in tweaks}

    def test_ack_roundtrip(self):
        ok = Acknowledgement.ok(b"result")
        err = Acknowledgement.error("nope")
        assert Acknowledgement.from_bytes(ok.to_bytes()) == ok
        assert Acknowledgement.from_bytes(err.to_bytes()) == err
        assert ok.commitment() != err.commitment()

    def test_bad_identifier_rejected(self):
        with pytest.raises(IbcError):
            ChannelId("UPPER")
        with pytest.raises(IbcError):
            PortId("x")  # too short


class TestHandshakes:
    def test_full_handshake_opens_both_ends(self, link):
        assert link.a.connection(link.conn_a).state == ConnectionState.OPEN
        assert link.b.connection(link.conn_b).state == ConnectionState.OPEN
        assert link.a.channel(link.port, link.chan_a).state == ChannelState.OPEN
        assert link.b.channel(link.port, link.chan_b).state == ChannelState.OPEN

    def test_try_with_wrong_proof_rejected(self):
        lk = Link()
        conn_a = lk.a.conn_open_init(lk.a_client_id, lk.b_client_id)
        h = lk.sync()
        # Proof of a different path entirely.
        lk.a.store.set("decoy", b"value")
        proof = lk.a.store.prove("decoy")
        with pytest.raises(HandshakeError):
            lk.b.conn_open_try(lk.b_client_id, lk.a_client_id, conn_a, proof, h)

    def test_try_against_stale_height_rejected(self):
        lk = Link()
        conn_a = lk.a.conn_open_init(lk.a_client_id, lk.b_client_id)
        proof = lk.a.store.prove(paths.connection_path(conn_a))
        with pytest.raises(HandshakeError):
            # Height 99 was never synced: no consensus root there.
            lk.b.conn_open_try(lk.b_client_id, lk.a_client_id, conn_a, proof, 99)

    def test_ack_out_of_order_rejected(self, link):
        with pytest.raises(HandshakeError):
            link.a.conn_open_ack(link.conn_a, link.conn_b,
                                 link.b.store.prove(paths.connection_path(link.conn_b)),
                                 link.sync())

    def test_channel_requires_open_connection(self):
        lk = Link()
        conn = lk.a.conn_open_init(lk.a_client_id, lk.b_client_id)
        with pytest.raises(HandshakeError):
            lk.a.chan_open_init(lk.port, conn, lk.port)

    def test_channel_requires_bound_port(self, link):
        with pytest.raises(ChannelError):
            link.a.chan_open_init(PortId("unbound"), link.conn_a, link.port)

    def test_connection_end_serialization(self):
        end = ConnectionEnd(ConnectionState.TRYOPEN, ClientId("client-0"),
                            ClientId("client-5"), ConnectionId("connection-2"))
        assert ConnectionEnd.from_bytes(end.to_bytes()) == end


@pytest.fixture
def echo_link():
    lk = Link()
    lk.open(port=lk.echo_port)
    return lk


class TestPacketLifecycle:
    def send_a_to_b(self, link, payload=b"hello", timeout=0.0):
        packet = link.a.send_packet(link.port, link.chan_a, payload, timeout)
        height = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_a), packet.sequence,
        )
        return packet, proof, height

    def test_send_recv_ack_roundtrip(self, echo_link):
        packet, proof, height = self.send_a_to_b(echo_link)
        ack = echo_link.b.recv_packet(packet, proof, height)
        assert ack.success
        height = echo_link.sync()
        ack_proof = echo_link.b.store.prove_seq(
            paths.ack_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        echo_link.a.acknowledge_packet(packet, ack, ack_proof, height)
        assert echo_link.a.counters.packets_acknowledged == 1
        # Commitment cleared (bounded sender state).
        assert not echo_link.a.store.contains_seq(
            paths.commitment_prefix(echo_link.port, echo_link.chan_a), packet.sequence,
        )

    def test_double_delivery_rejected_via_sealed_receipt(self, echo_link):
        """The paper's §III-A mechanism: the sealed receipt stub is what
        rejects the replay."""
        packet, proof, height = self.send_a_to_b(echo_link)
        echo_link.b.recv_packet(packet, proof, height)
        with pytest.raises(DoubleDeliveryError):
            echo_link.b.recv_packet(packet, proof, height)
        assert echo_link.b.counters.double_deliveries_rejected == 1

    def test_recv_with_forged_payload_rejected(self, echo_link):
        packet, proof, height = self.send_a_to_b(echo_link)
        import dataclasses
        forged = dataclasses.replace(packet, payload=b"evil")
        with pytest.raises(PacketError):
            echo_link.b.recv_packet(forged, proof, height)

    def test_recv_unsent_packet_rejected(self, echo_link):
        packet = Packet(99, echo_link.port, echo_link.chan_a, echo_link.port, echo_link.chan_b, b"x", 0.0)
        height = echo_link.sync()
        # No commitment exists; prove a decoy and try to pass it off.
        echo_link.a.store.set("decoy", b"v")
        proof = echo_link.a.store.prove("decoy")
        with pytest.raises(PacketError):
            echo_link.b.recv_packet(packet, proof, height)

    def test_expired_packet_not_deliverable(self, echo_link):
        packet, proof, height = self.send_a_to_b(echo_link, timeout=10.0)
        with pytest.raises(TimeoutError_):
            echo_link.b.recv_packet(packet, proof, height, local_time=11.0)

    def test_timeout_flow(self, echo_link):
        packet, _, _ = self.send_a_to_b(echo_link, timeout=10.0)
        height = echo_link.sync(timestamp=20.0)  # B's clock passed the timeout
        absence = echo_link.b.store.prove_seq_absence(
            paths.receipt_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        echo_link.a.timeout_packet(packet, absence, height)
        assert echo_link.a.counters.packets_timed_out == 1
        assert not echo_link.a.store.contains_seq(
            paths.commitment_prefix(echo_link.port, echo_link.chan_a), packet.sequence,
        )

    def test_timeout_before_expiry_rejected(self, echo_link):
        packet, _, _ = self.send_a_to_b(echo_link, timeout=100.0)
        height = echo_link.sync(timestamp=20.0)
        absence = echo_link.b.store.prove_seq_absence(
            paths.receipt_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        with pytest.raises(TimeoutError_):
            echo_link.a.timeout_packet(packet, absence, height)

    def test_timeout_of_delivered_packet_impossible(self, echo_link):
        """Safety: a delivered packet cannot also time out (the receipt
        exists, so no absence proof can be made)."""
        packet, proof, height = self.send_a_to_b(echo_link, timeout=1000.0)
        echo_link.b.recv_packet(packet, proof, height)
        from repro.errors import TrieError
        with pytest.raises(TrieError):
            echo_link.b.store.prove_seq_absence(
                paths.receipt_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
            )

    def test_sequences_increment(self, echo_link):
        p0 = echo_link.a.send_packet(echo_link.port, echo_link.chan_a, b"0", 0.0)
        p1 = echo_link.a.send_packet(echo_link.port, echo_link.chan_a, b"1", 0.0)
        assert (p0.sequence, p1.sequence) == (0, 1)

    def test_ordered_channel_enforces_order(self):
        lk = Link()
        lk.open(order=ChannelOrder.ORDERED)
        p0 = lk.a.send_packet(lk.port, lk.chan_a, b"0", 0.0)
        p1 = lk.a.send_packet(lk.port, lk.chan_a, b"1", 0.0)
        h = lk.sync()
        prefix = paths.commitment_prefix(lk.port, lk.chan_a)
        proof1 = lk.a.store.prove_seq(prefix, 1)
        with pytest.raises(PacketError):
            lk.b.recv_packet(p1, proof1, h)
        proof0 = lk.a.store.prove_seq(prefix, 0)
        lk.b.recv_packet(p0, proof0, h)
        lk.b.recv_packet(p1, proof1, h)

    def test_ack_with_wrong_content_rejected(self, echo_link):
        packet, proof, height = self.send_a_to_b(echo_link)
        ack = echo_link.b.recv_packet(packet, proof, height)
        height = echo_link.sync()
        ack_proof = echo_link.b.store.prove_seq(
            paths.ack_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        forged = Acknowledgement.error("forged failure")
        with pytest.raises(PacketError):
            echo_link.a.acknowledge_packet(packet, forged, ack_proof, height)
        echo_link.a.acknowledge_packet(packet, ack, ack_proof, height)

    def test_confirm_ack_seals_entry(self, echo_link):
        """Confirmed acks are sealed under the lagged rule: ack m seals
        once acks up to m+1 exist (see _SequenceTracker)."""
        packets = []
        for i in range(3):
            # B sends; A — the sealing (guest-like) side — receives.
            packet = echo_link.b.send_packet(echo_link.port, echo_link.chan_b, bytes([i]), 0.0)
            height = echo_link.sync()
            proof = echo_link.b.store.prove_seq(
                paths.commitment_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
            )
            echo_link.a.recv_packet(packet, proof, height)
            packets.append(packet)
        for packet in packets:
            echo_link.a.confirm_ack(echo_link.port, echo_link.chan_a, packet.sequence)
        from repro.errors import SealedNodeError
        ack_prefix = paths.ack_prefix(echo_link.port, echo_link.chan_a)
        with pytest.raises(SealedNodeError):
            echo_link.a.store.get_seq(ack_prefix, 0)
        # The newest ack stays unsealed until a later one lands (it must
        # remain provable and its leaf still covers future sequences).
        assert echo_link.a.store.contains_seq(ack_prefix, 2)

    def test_lagged_receipt_sealing_allows_out_of_order_delivery(self):
        """The correctness reason for lagged sealing: an unordered
        channel can deliver sequence 2 before 1; sealing receipt 2's
        leaf eagerly would have made receipt 1 unwritable."""
        lk = Link()
        lk.open(port=lk.echo_port)
        # B sends; A (the sealing, guest-like side) receives out of order.
        packets = [lk.b.send_packet(lk.port, lk.chan_b, bytes([i]), 0.0) for i in range(4)]
        height = lk.sync()
        prefix = paths.commitment_prefix(lk.port, lk.chan_b)
        order = [0, 2, 1, 3]
        for i in order:
            proof = lk.b.store.prove_seq(prefix, i)
            lk.a.recv_packet(packets[i], proof, height)
        from repro.errors import SealedNodeError
        receipt_prefix = paths.receipt_prefix(lk.port, lk.chan_a)
        # Everything below watermark-1 got sealed; replay still fails for
        # every delivered sequence, sealed or not.
        with pytest.raises(SealedNodeError):
            lk.a.store.get_seq(receipt_prefix, 0)
        for i in range(4):
            proof = lk.b.store.prove_seq(prefix, i)
            with pytest.raises(DoubleDeliveryError):
                lk.a.recv_packet(packets[i], proof, height)

    def test_frozen_client_blocks_recv(self, echo_link):
        """§VI-C's mitigation: a frozen client stops all deliveries."""
        from repro.errors import ClientError
        packet, proof, height = self.send_a_to_b(echo_link)
        echo_link.client_ba.freeze()
        with pytest.raises(ClientError):
            echo_link.b.recv_packet(packet, proof, height)


class TestTransferApp:
    def test_native_escrow_and_voucher_mint(self, link):
        link.bank_a.mint("alice", "GUEST", 500)
        payload = link.app_a.make_payload(link.chan_a, "GUEST", 200, "alice", "bob")
        packet = link.a.send_packet(link.port, link.chan_a, payload, 0.0)
        height = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_a), packet.sequence,
        )
        ack = link.b.recv_packet(packet, proof, height)
        assert ack.success
        voucher = link.app_b.voucher_denom(link.chan_b, "GUEST")
        assert link.bank_b.balance("bob", voucher) == 200
        assert link.bank_a.balance("alice", "GUEST") == 300
        assert link.bank_a.balance(link.app_a.escrow_address(link.chan_a), "GUEST") == 200

    def test_voucher_returns_home(self, link):
        self.test_native_escrow_and_voucher_mint(link)
        voucher = link.app_b.voucher_denom(link.chan_b, "GUEST")
        payload = link.app_b.make_payload(link.chan_b, voucher, 150, "bob", "carol")
        packet = link.b.send_packet(link.port, link.chan_b, payload, 0.0)
        height = link.sync()
        proof = link.b.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_b), packet.sequence,
        )
        ack = link.a.recv_packet(packet, proof, height)
        assert ack.success
        assert link.bank_a.balance("carol", "GUEST") == 150
        assert link.bank_b.balance("bob", voucher) == 50
        # Supply invariant: escrow shrank by what came home.
        assert link.bank_a.balance(link.app_a.escrow_address(link.chan_a), "GUEST") == 50

    def test_timeout_refunds_escrow(self, link):
        link.bank_a.mint("alice", "GUEST", 500)
        payload = link.app_a.make_payload(link.chan_a, "GUEST", 200, "alice", "bob")
        packet = link.a.send_packet(link.port, link.chan_a, payload, timeout_timestamp=10.0)
        height = link.sync(timestamp=20.0)
        absence = link.b.store.prove_seq_absence(
            paths.receipt_prefix(link.port, link.chan_b), packet.sequence,
        )
        link.a.timeout_packet(packet, absence, height)
        assert link.bank_a.balance("alice", "GUEST") == 500

    def test_failed_recv_acks_error_and_refunds(self, link):
        """A malformed payload produces an error ack; on return it
        refunds the sender."""
        link.bank_a.mint("alice", "GUEST", 500)
        payload = link.app_a.make_payload(link.chan_a, "GUEST", 200, "alice", "bob")
        packet = link.a.send_packet(link.port, link.chan_a, payload + b"corrupt", 0.0)
        # Manually corrupting after commitment means recv rejects the
        # packet outright (commitment mismatch) — so instead test the
        # app-level failure path directly:
        bad = Packet(5, link.port, link.chan_a, link.port, link.chan_b, b"\xff", 0.0)
        ack = link.app_b.on_recv(bad)
        assert not ack.success

    def test_refund_after_error_ack(self, link):
        link.bank_a.mint("alice", "GUEST", 500)
        payload = link.app_a.make_payload(link.chan_a, "GUEST", 200, "alice", "bob")
        packet = link.a.send_packet(link.port, link.chan_a, payload, 0.0)
        link.app_a.on_acknowledge(packet, Acknowledgement.error("rejected"))
        assert link.bank_a.balance("alice", "GUEST") == 500

    def test_transfer_amount_must_be_positive(self, link):
        with pytest.raises(IbcError):
            link.app_a.make_payload(link.chan_a, "GUEST", 0, "alice", "bob")

    def test_payload_codec(self):
        data = FungibleTokenPacketData("transfer/channel-0/uatom", 42, "a", "b")
        assert FungibleTokenPacketData.from_bytes(data.to_bytes()) == data


class TestChannelClose:
    def test_close_handshake(self, link):
        """Init on A, proof-checked confirm on B (ICS-04)."""
        from repro.ibc.channel import ChannelState
        link.a.chan_close_init(link.port, link.chan_a)
        assert link.a.channel(link.port, link.chan_a).state == ChannelState.CLOSED
        height = link.sync()
        proof = link.a.store.prove(paths.channel_path(link.port, link.chan_a))
        link.b.chan_close_confirm(link.port, link.chan_b, proof, height)
        assert link.b.channel(link.port, link.chan_b).state == ChannelState.CLOSED

    def test_closed_channel_rejects_new_sends(self, link):
        link.a.chan_close_init(link.port, link.chan_a)
        with pytest.raises(ChannelError):
            link.a.send_packet(link.port, link.chan_a, b"late", 0.0)

    def test_close_confirm_requires_proof_of_closure(self, link):
        height = link.sync()
        # A has NOT closed; B cannot confirm with a proof of the open end.
        proof = link.a.store.prove(paths.channel_path(link.port, link.chan_a))
        with pytest.raises(HandshakeError):
            link.b.chan_close_confirm(link.port, link.chan_b, proof, height)

    def test_inflight_ack_settles_after_close(self, echo_link):
        """Closing stops new traffic; in-flight packets still settle."""
        packet = echo_link.a.send_packet(echo_link.port, echo_link.chan_a, b"x", 0.0)
        height = echo_link.sync()
        proof = echo_link.a.store.prove_seq(
            paths.commitment_prefix(echo_link.port, echo_link.chan_a), packet.sequence,
        )
        ack = echo_link.b.recv_packet(packet, proof, height)
        echo_link.a.chan_close_init(echo_link.port, echo_link.chan_a)
        height = echo_link.sync()
        ack_proof = echo_link.b.store.prove_seq(
            paths.ack_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        echo_link.a.acknowledge_packet(packet, ack, ack_proof, height)
        assert echo_link.a.counters.packets_acknowledged == 1

    def test_inflight_timeout_settles_after_close(self, echo_link):
        packet = echo_link.a.send_packet(echo_link.port, echo_link.chan_a, b"x",
                                         timeout_timestamp=10.0)
        echo_link.a.chan_close_init(echo_link.port, echo_link.chan_a)
        height = echo_link.sync(timestamp=20.0)
        absence = echo_link.b.store.prove_seq_absence(
            paths.receipt_prefix(echo_link.port, echo_link.chan_b), packet.sequence,
        )
        echo_link.a.timeout_packet(packet, absence, height)
        assert echo_link.a.counters.packets_timed_out == 1

    def test_double_close_rejected(self, link):
        link.a.chan_close_init(link.port, link.chan_a)
        with pytest.raises(ChannelError):
            link.a.chan_close_init(link.port, link.chan_a)
