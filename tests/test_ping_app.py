"""Tests for the ICS ping-pong app, including an end-to-end probe over
a second port of the full deployment."""

import pytest

from repro.ibc.apps.ping import PingApp, PingPayload
from repro.ibc.identifiers import ChannelId, PortId
from repro.ibc.packet import Acknowledgement, Packet


def make_packet(payload: bytes) -> Packet:
    return Packet(0, PortId("guest-ping"), ChannelId("channel-0"),
                  PortId("guest-ping"), ChannelId("channel-1"), payload, 0.0)


class TestPingUnit:
    def test_payload_roundtrip(self):
        payload = PingPayload(nonce=7, sent_at=123.456)
        assert PingPayload.from_bytes(payload.to_bytes()) == payload

    def test_recv_echoes_nonce(self):
        app = PingApp()
        ack = app.on_recv(make_packet(PingPayload(42, 1.0).to_bytes()))
        assert ack.success
        from repro.encoding import Reader
        assert Reader(ack.result).read_varint() == 42
        assert app.pings_received == [42]

    def test_malformed_ping_nacked(self):
        app = PingApp()
        ack = app.on_recv(make_packet(b"\xff" * 3))
        assert not ack.success

    def test_round_trip_recorded(self):
        now = [10.0]
        app = PingApp(clock=lambda: now[0])
        payload = app.make_payload(nonce=5)
        now[0] = 13.5
        pong = Acknowledgement.ok(PingApp().on_recv(make_packet(payload)).result)
        app.on_acknowledge(make_packet(payload), pong)
        (record,) = app.completed
        assert record.round_trip == pytest.approx(3.5)

    def test_mismatched_pong_ignored(self):
        from repro.encoding import encode_varint
        app = PingApp()
        payload = app.make_payload(nonce=5)
        app.on_acknowledge(make_packet(payload),
                           Acknowledgement.ok(encode_varint(99)))
        assert not app.completed

    def test_timeout_recorded(self):
        app = PingApp()
        app.on_timeout(make_packet(app.make_payload(nonce=3)))
        assert app.timeouts == [3]


class TestPingEndToEnd:
    def test_ping_over_a_dedicated_port(self):
        """A second application port over the same connection: ping the
        counterparty through the full relay pipeline and measure the
        cross-chain round trip."""
        from repro import Deployment, DeploymentConfig
        from repro.guest.config import GuestConfig
        from repro.validators.profiles import simple_profiles

        dep = Deployment(DeploymentConfig(
            seed=191,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4),
        ))
        # Bind ping apps on both chains before opening the channel.
        guest_ping = PingApp(clock=lambda: dep.sim.now)
        cp_ping = PingApp(clock=lambda: dep.sim.now)
        port = PortId("guest-ping")
        dep.contract.ibc.bind_port(port, guest_ping)
        dep.counterparty.ibc.bind_port(port, cp_ping)

        dep.establish_link()  # transfer channel + the connection
        guest_chan, _ = dep.establish_link(port=str(port))

        dep.user_api.send_packet(str(port), str(guest_chan),
                                 guest_ping.make_payload(nonce=1))
        dep.run_for(300.0)

        assert cp_ping.pings_received == [1]
        (record,) = guest_ping.completed
        # The cross-chain round trip: guest finalisation + relay + cp
        # block + chunked LC update back + ack bundle.  Tens of seconds,
        # under the several-minute mark.
        assert 5.0 < record.round_trip < 300.0
