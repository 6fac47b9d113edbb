"""ICS ping-pong: the canonical channel-liveness application.

IBC deployments conventionally keep a trivial echo app around to probe
channels end to end without moving value (relayer smoke tests, latency
monitoring).  A ping packet carries a nonce; the receiver acknowledges
with the same nonce, and the sender records the measured round-trip.

Useful here both as a second real application over the same IBC core
(exercising multi-port routing) and as the natural workload for latency
probes in operations tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding import Reader, encode_bytes, encode_varint
from repro.ibc.host import IbcApp
from repro.ibc.packet import Acknowledgement, Packet


@dataclass(frozen=True)
class PingPayload:
    """A ping: nonce plus the sender's send timestamp."""

    nonce: int
    sent_at: float

    def to_bytes(self) -> bytes:
        return encode_varint(self.nonce) + encode_varint(round(self.sent_at * 1000))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PingPayload":
        reader = Reader(data)
        payload = cls(nonce=reader.read_varint(),
                      sent_at=reader.read_varint() / 1000.0)
        reader.expect_end()
        return payload


@dataclass
class PingRecord:
    """One completed round trip."""

    nonce: int
    sent_at: float
    acked_at: float

    @property
    def round_trip(self) -> float:
        return self.acked_at - self.sent_at


def _zero_clock() -> float:
    return 0.0


class PingApp(IbcApp):
    """The echo application, bound to its own port on both chains."""

    def __init__(self, clock=None) -> None:
        #: Clock used to timestamp ack processing (injected by the
        #: embedding chain; defaults to 0 for pure unit use).
        self._clock = clock or _zero_clock
        self.pings_received: list[int] = []
        self.completed: list[PingRecord] = []
        self.timeouts: list[int] = []

    def make_payload(self, nonce: int) -> bytes:
        return PingPayload(nonce=nonce, sent_at=self._clock()).to_bytes()

    def on_recv(self, packet: Packet) -> Acknowledgement:
        try:
            payload = PingPayload.from_bytes(packet.payload)
        except ValueError as exc:
            return Acknowledgement.error(f"malformed ping: {exc}")
        self.pings_received.append(payload.nonce)
        # Pong: echo the nonce back in the ack result.
        return Acknowledgement.ok(encode_varint(payload.nonce))

    def on_acknowledge(self, packet: Packet, ack: Acknowledgement) -> None:
        if not ack.success:
            return
        payload = PingPayload.from_bytes(packet.payload)
        echoed = Reader(ack.result).read_varint()
        if echoed != payload.nonce:
            return  # a mismatched pong is ignored, not trusted
        self.completed.append(PingRecord(
            nonce=payload.nonce,
            sent_at=payload.sent_at,
            acked_at=self._clock(),
        ))

    def on_timeout(self, packet: Packet) -> None:
        payload = PingPayload.from_bytes(packet.payload)
        self.timeouts.append(payload.nonce)
