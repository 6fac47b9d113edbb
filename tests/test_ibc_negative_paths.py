"""Remaining negative paths of the IBC module: identifier management,
routing misdirection and proof-height discipline."""

import pytest

from repro.crypto.hashing import Hash
from repro.errors import ChannelError, ClientError, HandshakeError, PacketError
from repro.ibc.host import IbcApp
from repro.ibc.identifiers import ChannelId, ClientId, ConnectionId, PortId

from tests.helpers import StaticRootClient, bare_host
from tests.test_ibc_core import Link


class TestClientManagement:
    def test_client_ids_sequence(self):
        host = bare_host("seq-test")
        first = host.create_client(StaticRootClient())
        second = host.create_client(StaticRootClient())
        assert (str(first), str(second)) == ("client-0", "client-1")
        assert host.client(first) is not host.client(second)

    def test_unknown_client_rejected(self):
        host = bare_host("seq-test")
        with pytest.raises(ClientError):
            host.client(ClientId("client-9"))
        with pytest.raises(ClientError):
            host.conn_open_init(ClientId("client-9"), ClientId("client-0"))

    def test_port_rebinding_rejected(self):
        host = bare_host("seq-test")
        host.bind_port(PortId("transfer"), IbcApp())
        with pytest.raises(ChannelError):
            host.bind_port(PortId("transfer"), IbcApp())

    def test_unknown_connection_and_channel(self):
        host = bare_host("seq-test")
        with pytest.raises(HandshakeError):
            host.connection(ConnectionId("connection-3"))
        with pytest.raises(ChannelError):
            host.channel(PortId("transfer"), ChannelId("channel-3"))


class TestRoutingMisdirection:
    @pytest.fixture
    def two_channels(self):
        """One link with two independent echo channels."""
        link = Link()
        link.open(port=link.echo_port)
        first = (link.chan_a, link.chan_b)
        link.open(port=link.echo_port)  # second channel over new conn
        second = (link.chan_a, link.chan_b)
        return link, first, second

    def test_packet_cannot_cross_channels(self, two_channels):
        """A packet sent on channel 1 cannot be delivered as if it came
        over channel 2 — the channel binding is part of routing checks."""
        import dataclasses
        from repro.ibc import commitment as paths
        link, (a1, b1), (a2, b2) = two_channels
        packet = link.a.send_packet(link.port, a1, b"routed", 0.0)
        height = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, a1), packet.sequence,
        )
        rerouted = dataclasses.replace(packet, destination_channel=b2)
        with pytest.raises(PacketError, match="wrong channel"):
            link.b.recv_packet(rerouted, proof, height)
        # The correctly routed delivery still works afterwards.
        ack = link.b.recv_packet(packet, proof, height)
        assert ack.success

    def test_commitment_proof_not_transferable_between_channels(self, two_channels):
        """Even with matching routing fields, a proof for channel 1's
        commitment cannot authorise a channel-2 packet (distinct keys)."""
        import dataclasses
        from repro.ibc import commitment as paths
        link, (a1, b1), (a2, b2) = two_channels
        packet = link.a.send_packet(link.port, a1, b"original", 0.0)
        height = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, a1), packet.sequence,
        )
        impostor = dataclasses.replace(
            packet, source_channel=a2, destination_channel=b2,
        )
        with pytest.raises(PacketError):
            link.b.recv_packet(impostor, proof, height)


class TestProofHeightDiscipline:
    def test_proof_against_other_height_rejected(self):
        """A proof valid at height H fails verification at height H+1 if
        the root moved (no silent acceptance of stale proofs)."""
        from repro.ibc import commitment as paths
        link = Link()
        link.open(port=link.echo_port)
        packet = link.a.send_packet(link.port, link.chan_a, b"x", 0.0)
        h1 = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_a), packet.sequence,
        )
        # Root moves between h1 and h2.
        link.a.store.set("drift", b"drift")
        h2 = link.sync()
        import dataclasses
        with pytest.raises(PacketError):
            link.b.recv_packet(packet, proof, h2)
        ack = link.b.recv_packet(packet, proof, h1)
        assert ack.success

    def test_untracked_height_rejected(self):
        from repro.ibc import commitment as paths
        link = Link()
        link.open(port=link.echo_port)
        packet = link.a.send_packet(link.port, link.chan_a, b"x", 0.0)
        link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_a), packet.sequence,
        )
        with pytest.raises(PacketError):
            link.b.recv_packet(packet, proof, 10_000)  # never synced

    def test_ack_proof_height_discipline(self):
        from repro.ibc import commitment as paths
        link = Link()
        link.open(port=link.echo_port)
        packet = link.a.send_packet(link.port, link.chan_a, b"x", 0.0)
        h1 = link.sync()
        proof = link.a.store.prove_seq(
            paths.commitment_prefix(link.port, link.chan_a), packet.sequence,
        )
        ack = link.b.recv_packet(packet, proof, h1)
        ack_proof = link.b.store.prove_seq(
            paths.ack_prefix(link.port, link.chan_b), packet.sequence,
        )
        # The ack was written after h1; its proof only verifies at h2.
        with pytest.raises(PacketError):
            link.a.acknowledge_packet(packet, ack, ack_proof, h1)
        h2 = link.sync()
        link.a.acknowledge_packet(packet, ack, ack_proof, h2)

    def test_ack_for_unsent_packet_rejected(self):
        from repro.ibc import commitment as paths
        from repro.ibc.packet import Acknowledgement, Packet
        link = Link()
        link.open(port=link.echo_port)
        phantom = Packet(0, link.port, link.chan_a, link.port, link.chan_b,
                         b"phantom", 0.0)
        # Forge an ack on B's store without any commitment on A.
        link.b.store.set_seq(paths.ack_prefix(link.port, link.chan_b), 0,
                             Acknowledgement.ok().commitment())
        height = link.sync()
        ack_proof = link.b.store.prove_seq(
            paths.ack_prefix(link.port, link.chan_b), 0,
        )
        with pytest.raises(PacketError, match="no outstanding commitment"):
            link.a.acknowledge_packet(phantom, Acknowledgement.ok(), ack_proof, height)
