"""The one handshake driver: ICS-03 and ICS-04 as a loop over four steps.

Both dances are ``Init, Try, Ack, Confirm``, alternating between the
initiating and the responding end.  Every step after the first is the
same movement::

    wait until the previous step's write is provable on the peer
    -> bring this end's client of the peer to that height
    -> prove the peer's connection/channel end
    -> submit the datagram here -> check the result

so the two dances are two tables of datagram builders, and who initiates
is an argument: guest-initiated, counterparty-initiated and guest↔guest
links are three argument orders of one loop.  A step that fails is
retried from "wait until provable" under the relayer's
:class:`~repro.relayer.resilience.RetryPolicy`; when that is exhausted
the dance raises :class:`~repro.errors.HandshakeError` naming the link,
the step and the cause, instead of hanging until a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.errors import HandshakeError
from repro.ibc import commitment as paths
from repro.ibc import messages as msgs
from repro.ibc.channel import ChannelOrder
from repro.ibc.identifiers import ChannelId, ConnectionId, PortId


@dataclass
class Side:
    """One end's part in a dance: the identifier it creates there."""

    end: object
    port: Optional[PortId] = None
    #: The ConnectionId / ChannelId this dance created on ``end``.
    ident: Optional[str] = None


def _connection_path(side: Side) -> str:
    return paths.connection_path(side.ident)


def _channel_path(side: Side) -> str:
    return paths.channel_path(side.port, side.ident)


def _keep_connection(side: Side) -> None:
    side.end.connection_id = side.ident


def _keep_channel(side: Side) -> None:
    side.end.channels.add((side.port, side.ident))


# Datagram builders: (submitting side, peer side, proof of the peer's
# end, proof height, channel order) -> message.

def _conn_init(me, peer, proof, height, order):
    return msgs.MsgConnOpenInit(
        client_id=me.end.client_id, counterparty_client_id=peer.end.client_id)


def _conn_try(me, peer, proof, height, order):
    return msgs.MsgConnOpenTry(
        client_id=me.end.client_id, counterparty_client_id=peer.end.client_id,
        counterparty_connection_id=peer.ident,
        proof=proof, proof_height=height,
        # What the peer's client claims about this chain — validated
        # here on-chain (ICS-03 validate_self_client).
        client_state=peer.end.client_claim())


def _conn_ack(me, peer, proof, height, order):
    return msgs.MsgConnOpenAck(
        connection_id=me.ident, counterparty_connection_id=peer.ident,
        proof=proof, proof_height=height,
        client_state=peer.end.client_claim())


def _conn_confirm(me, peer, proof, height, order):
    return msgs.MsgConnOpenConfirm(
        connection_id=me.ident, proof=proof, proof_height=height)


def _chan_init(me, peer, proof, height, order):
    return msgs.MsgChanOpenInit(
        port_id=me.port, connection_id=me.end.connection_id,
        counterparty_port_id=peer.port, order=order)


def _chan_try(me, peer, proof, height, order):
    return msgs.MsgChanOpenTry(
        port_id=me.port, connection_id=me.end.connection_id,
        counterparty_port_id=peer.port, counterparty_channel_id=peer.ident,
        order=order, proof=proof, proof_height=height)


def _chan_ack(me, peer, proof, height, order):
    return msgs.MsgChanOpenAck(
        port_id=me.port, channel_id=me.ident,
        counterparty_channel_id=peer.ident, proof=proof, proof_height=height)


def _chan_confirm(me, peer, proof, height, order):
    return msgs.MsgChanOpenConfirm(
        port_id=me.port, channel_id=me.ident, proof=proof, proof_height=height)


#: A dance: the identifier type it creates, the path each end is proven
#: at, how an end keeps its result, and the four datagram builders.
CONNECTION = (ConnectionId, _connection_path, _keep_connection,
              (_conn_init, _conn_try, _conn_ack, _conn_confirm))
CHANNEL = (ChannelId, _channel_path, _keep_channel,
           (_chan_init, _chan_try, _chan_ack, _chan_confirm))


class Handshake:
    """One four-step dance between ``initiator`` and ``responder``."""

    def __init__(self, relayer, dance, initiator: Side, responder: Side,
                 on_done: Callable[[], None],
                 order: ChannelOrder = ChannelOrder.UNORDERED) -> None:
        self.relayer = relayer
        self.ident_type, self.path_of, self.keep, self.builders = dance
        self.sides = (initiator, responder)
        self.on_done = on_done
        self.order = order
        #: The ``relay.handshake.step`` span of the step in flight.
        self._span = None
        #: (end, height): the peer block the step in flight proves at,
        #: which its end's chain keeps (``Relayer._floor``) while the
        #: dance is under way.
        self.holding: Optional[tuple[object, int]] = None

    def start(self) -> None:
        self.relayer._dances.append(self)
        self._begin(0, None)

    def _begin(self, index: int, committed: Optional[int]) -> None:
        """Step ``index`` starts: the relayer has just seen the previous
        one execute (or the dance start).  Its span ends when this step
        executes, so a dance's spans tile it end to end."""
        relayer = self.relayer
        self._span = relayer.sim.trace.span(
            "relay.handshake.step",
            key=f"{relayer.a.chain_id}-{relayer.b.chain_id}", actor="relayer")
        self._step(index, committed, 1)

    def _step(self, index: int, committed: Optional[int], attempt: int) -> None:
        """Submit datagram ``index``; ``committed`` is the height of the
        peer's block that commits the previous step."""
        if index == 0:
            self._submit(index, committed, attempt, None, 0)
            return
        peer = self.sides[(index + 1) % 2].end
        self.holding = (peer, committed)
        self.relayer._await_commit(peer, committed,
                                   partial(self._prove, index, committed, attempt))

    def _prove(self, index: int, committed: Optional[int], attempt: int,
               height: int) -> None:
        """The peer's block at ``height`` is covered: prove its end there."""
        peer = self.sides[(index + 1) % 2]
        self._submit(index, committed, attempt,
                     peer.end.view(height).prove(self.path_of(peer)), height)

    def _submit(self, index: int, committed: Optional[int], attempt: int,
                proof, height: int) -> None:
        me, peer = self.sides[index % 2], self.sides[(index + 1) % 2]
        msg = self.builders[index](me, peer, proof, height, self.order)
        name = type(msg).__name__
        self.relayer._submit_handshake(
            me.end, msg, partial(self._advance, index, name=name),
            partial(self._failed, index, committed, attempt, name,
                    height=height))

    def _advance(self, index: int, created: Optional[str], committed: int,
                 name: str) -> None:
        self._span.end(datagram=name)
        if created is not None:
            self.sides[index % 2].ident = self.ident_type(created)
        if index + 1 < len(self.builders):
            self._begin(index + 1, committed)
            return
        for side in self.sides:
            self.keep(side)
        self.relayer._dances.remove(self)
        self.on_done()

    def _failed(self, index: int, committed: Optional[int], attempt: int,
                name: str, cause, height: int) -> None:
        relayer = self.relayer
        me = self.sides[index % 2]
        if index and me.end.updates.refused(height):
            # Refused behind the peer's header, which this end's client
            # refused first (e.g. an older epoch than it now tracks):
            # not the step's own failure, so not an attempt.  Its one
            # continuation is to prove again from the peer's next block.
            relayer.sim.trace.count("relay.handshakes.refused_behind_header")
            self._step(index, height + 1, attempt)
            return
        if not relayer.retry_policy.allows(attempt):
            self._span.end(datagram=name, failed=str(cause))
            relayer._dances.remove(self)
            raise HandshakeError(
                f"link {relayer.a.chain_id}<->{relayer.b.chain_id}: {name} "
                f"failed after {attempt} attempts: {cause}")
        relayer.sim.trace.count("relay.handshakes.retried")
        # Transient (e.g. a proof height the client lost track of):
        # re-ensure the client height and prove again.
        relayer.sim.schedule(
            relayer.retry_policy.delay(attempt, relayer._retry_rng),
            self._step, index, committed, attempt + 1)
