"""The one handshake driver (repro.relayer.handshake).

Four things are pinned here:

* the driver's loop, against the protocol-level harness of
  ``tests/helpers.py`` (no kernel): for every argument order the
  datagrams go out ``Init, Try, Ack, Confirm`` twice, alternate between
  the two ends, and each proof height is covered by the receiving
  chain's client before the datagram is submitted;
* a failed step is *checked*: a transient failure is retried from
  "bring the client to the height" and the handshake completes; a
  permanent one raises ``HandshakeError`` naming the step, instead of
  a ``TypeError`` or an hour-long hang — behind a frozen client too,
  and on a guest↔guest link, whose step carries its own SIBLING_UPDATE;
  a step refused behind a refused header is neither, and runs once,
  later;
* one ``relay.handshake.step`` span per datagram, tiling the link's
  establishment;
* on a guest shared by several links, each relayer consumes only the
  ``HandshakeStep`` events of its own datagrams, so the fabric builds
  whatever order its links are listed in.
"""

import dataclasses

import pytest

from repro import Deployment, DeploymentConfig
from repro.errors import HandshakeError, HostUnavailableError
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, RouteSpec, TopologyConfig,
    build_fabric,
)
from repro.guest.config import GuestConfig
from repro.ibc.channel import ChannelState
from repro.ibc.connection import ConnectionState
from repro.ibc.identifiers import PortId
from repro.ibc.messages import apply_handshake
from repro.relayer.handshake import CHANNEL, CONNECTION, Handshake, Side
from repro.validators.profiles import simple_profiles

from tests.helpers import ProtoFabric, StaticRootClient


# ----------------------------------------------------------------------
# The loop, over the protocol harness
# ----------------------------------------------------------------------

class ProtoEnd:
    """The slice of an endpoint the driver uses, over a ``ProtoChain``."""

    def __init__(self, fabric: ProtoFabric, name: str, peer: str) -> None:
        self.chain = fabric.chains[name]
        self.ibc = self.chain.host
        self.chain_id = name
        client = StaticRootClient()
        fabric.clients[(name, peer)] = client
        self.client_id = self.chain.host.create_client(client)
        self.client = client
        self.connection_id = None
        self.channels = set()

    def client_claim(self) -> bytes:
        return b""

    def view(self, height: int):
        return self.chain.host.store


class ProtoRelayer:
    """Instant stand-in for the relayer's two handshake primitives."""

    def __init__(self, fabric: ProtoFabric, a: ProtoEnd, b: ProtoEnd) -> None:
        from repro.sim.kernel import Simulation
        self.fabric, self.a, self.b = fabric, a, b
        self.sim = Simulation()  # untraced: the step spans go nowhere
        self.sent: list[tuple[str, str]] = []
        self._dances = []  # the handshakes under way register here

    def _await_commit(self, src, marker, action) -> None:
        action(self.fabric.sync())

    def _submit_handshake(self, end, msg, then, failed) -> None:
        proof_height = getattr(msg, "proof_height", None)
        if proof_height is not None:
            # The receiving chain's client must already cover the height.
            assert end.client.consensus_root(proof_height) is not None
        self.sent.append((end.chain_id, type(msg).__name__))
        then(apply_handshake(end.chain.host, msg), 0)


@pytest.mark.parametrize("order", ["a-initiates", "b-initiates", "ends-swapped"])
def test_driver_sends_init_try_ack_confirm_twice(order):
    fabric = ProtoFabric()
    fabric.add_chain("x")
    fabric.add_chain("y")
    x, y = ProtoEnd(fabric, "x", "y"), ProtoEnd(fabric, "y", "x")
    a, b = (y, x) if order == "ends-swapped" else (x, y)
    first, second = (b, a) if order == "b-initiates" else (a, b)
    relayer = ProtoRelayer(fabric, a, b)
    port = PortId("transfer")
    done = []

    conn = (Side(first), Side(second))
    Handshake(relayer, CONNECTION, *conn, lambda: done.append("conn")).start()
    chan = (Side(first, port), Side(second, port))
    Handshake(relayer, CHANNEL, *chan, lambda: done.append("chan")).start()

    assert done == ["conn", "chan"]
    i, r = first.chain_id, second.chain_id
    assert relayer.sent == [
        (i, "MsgConnOpenInit"), (r, "MsgConnOpenTry"),
        (i, "MsgConnOpenAck"), (r, "MsgConnOpenConfirm"),
        (i, "MsgChanOpenInit"), (r, "MsgChanOpenTry"),
        (i, "MsgChanOpenAck"), (r, "MsgChanOpenConfirm"),
    ]
    for side in conn:
        host = side.end.chain.host
        assert host.connection(side.ident).state == ConnectionState.OPEN
    for side in chan:
        host = side.end.chain.host
        assert host.channel(port, side.ident).state == ChannelState.OPEN
    # Each end references the other's identifiers, not its own.
    ends = [side.end.chain.host.connection(side.ident) for side in conn]
    assert ends[0].counterparty_connection_id == conn[1].ident
    assert ends[1].counterparty_connection_id == conn[0].ident


# ----------------------------------------------------------------------
# Failed steps are checked (full stack)
# ----------------------------------------------------------------------

def small_deployment(seed: int) -> Deployment:
    return Deployment(DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
        tracing=True,
    ))


def failing(original, failures: int, calls: list):
    def conn_open_ack(*args, **kwargs):
        calls.append(None)
        if len(calls) <= failures:
            raise HandshakeError("no consensus state at the proof height")
        return original(*args, **kwargs)
    return conn_open_ack


class TestFailedSteps:
    def test_transient_failure_is_retried(self):
        dep = small_deployment(131)
        calls: list = []
        dep.contract.ibc.conn_open_ack = failing(
            dep.contract.ibc.conn_open_ack, 1, calls)
        guest_chan, cp_chan = dep.establish_link()
        assert len(calls) == 2
        assert dep.trace_report().counters.get("relay.handshakes.retried") == 1
        assert dep.contract.ibc.channel(
            PortId("transfer"), guest_chan).state == ChannelState.OPEN

    def test_permanent_failure_names_the_step(self):
        dep = small_deployment(132)
        calls: list = []
        dep.contract.ibc.conn_open_ack = failing(
            dep.contract.ibc.conn_open_ack, 10**9, calls)
        with pytest.raises(HandshakeError, match="ConnOpenAck") as raised:
            dep.establish_link()
        assert "guest<->" in str(raised.value)
        assert "no consensus state" in str(raised.value)
        assert len(calls) == dep.relayer.retry_policy.max_attempts

    def test_failure_on_the_counterparty_side_is_checked_too(self):
        dep = small_deployment(133)
        calls: list = []
        dep.counterparty.ibc.conn_open_try = failing(
            dep.counterparty.ibc.conn_open_try, 1, calls)
        dep.establish_link()
        assert len(calls) == 2

    def test_a_step_refused_behind_its_header_runs_once_later(
            self, monkeypatch):
        """The step rides behind its guest header in one counterparty
        block; the client refuses the first header, so the step is
        refused behind it.  That is not the step's failure: no retry, no
        second submission — it executes once, from a later block."""
        from repro.errors import ClientError
        from repro.relayer import endpoint

        dep = small_deployment(134)
        client = dep.guest_client
        update = client.update
        refused: list[int] = []
        executed: list[str] = []

        def refuse_first(message):
            if not refused:
                refused.append(message.header.height)
                raise ClientError("header refused (test)")
            return update(message)

        def watched_apply(ibc, msg):
            result = apply_handshake(ibc, msg)
            executed.append(type(msg).__name__)
            return result

        client.update = refuse_first
        monkeypatch.setattr(endpoint, "apply_handshake", watched_apply)
        guest_chan, cp_chan = dep.establish_link()
        assert (str(guest_chan), str(cp_chan)) == ("channel-0", "channel-0")
        assert executed == ["MsgConnOpenTry", "MsgConnOpenConfirm",
                            "MsgChanOpenTry", "MsgChanOpenConfirm"]
        for ibc in (dep.contract.ibc, dep.counterparty.ibc):
            assert [str(conn) for conn in ibc.connections] == ["connection-0"]
            assert [str(chan) for _, chan in ibc.channels] == ["channel-0"]
        counters = dep.trace_report().counters
        assert counters["relay.header_push.refused"] == 1
        assert counters["relay.handshakes.refused_behind_header"] == 1
        assert "relay.handshakes.retried" not in counters

    def test_a_frozen_client_spends_the_attempts_and_raises(self):
        """Every header is refused by a frozen client, and so is every
        datagram behind one — but that is the step's own failure, not a
        refusal behind a header: the budget is spent and the dance
        raises, long before the deadline."""
        dep = Deployment(DeploymentConfig(seed=5))
        dep.guest_client.freeze()
        began = dep.sim.now
        with pytest.raises(HandshakeError,
                           match="MsgConnOpenTry failed after 8 attempts: "
                                 "light client is frozen"):
            dep.establish_link(max_seconds=1_200.0)
        assert dep.sim.now - began < 600.0

    @pytest.mark.parametrize("fault", ["corrupted-proof", "frozen-client"])
    def test_a_sibling_step_that_fails_on_its_own_raises(self, fault):
        """On a guest↔guest link a step carries the SIBLING_UPDATE its
        proof needs, so nothing tells a refused adoption from the step's
        own failure — and an adoption of a finalised height is refused
        only by a frozen client, which is the step's failure too.  A
        corrupted proof, or a client frozen once the dance is under way,
        spends the retry budget and raises, long before the deadline;
        it is never re-proven as if refused behind an update."""
        dep = build_fabric(TopologyConfig(
            guests=(GuestSpec("g0"), GuestSpec("g1")),
            links=(LinkSpec("g0", "g1"),), seed=11), establish=False)
        relayer = dep.links[0].relayer
        submit = relayer._submit_handshake
        tries: list[int] = []

        def faulty(end, msg, then, failed):
            if type(msg).__name__ == "MsgConnOpenTry":
                tries.append(msg.proof_height)
                if fault == "frozen-client":
                    end.client.freeze()
                else:
                    msg = dataclasses.replace(msg, proof=dataclasses.replace(
                        msg.proof, value=b"forged"))
            submit(end, msg, then, failed)

        relayer._submit_handshake = faulty
        began = dep.sim.now
        with pytest.raises(HandshakeError, match="MsgConnOpenTry failed after"):
            dep.establish_all(max_seconds_per_link=1_200.0)
        assert len(tries) == relayer.retry_policy.max_attempts
        assert dep.sim.now - began < 600.0


# ----------------------------------------------------------------------
# One span per step (relay.handshake.step)
# ----------------------------------------------------------------------

class TestStepSpans:
    @pytest.mark.parametrize("seed", range(3))
    def test_a_links_step_spans_tile_its_establishment(self, seed):
        """Each span runs from the relayer seeing the previous step
        execute to seeing its own execute, so the eight spans of one
        link are contiguous over [start, opened_at] and establishment
        time is the sum of its steps."""
        dep = small_deployment(seed)
        began = dep.sim.now
        dep.establish_link()
        opened_at = dep.sim.now
        spans = dep.trace_report().spans_named("relay.handshake.step")
        assert [span.attrs["datagram"] for span in spans] == [
            "MsgConnOpenInit", "MsgConnOpenTry",
            "MsgConnOpenAck", "MsgConnOpenConfirm",
            "MsgChanOpenInit", "MsgChanOpenTry",
            "MsgChanOpenAck", "MsgChanOpenConfirm"]
        relayer = dep.relayer
        assert {span.key for span in spans} == {
            f"{relayer.a.chain_id}-{relayer.b.chain_id}"}
        assert spans[0].start == began
        assert all(earlier.end == later.start
                   for earlier, later in zip(spans, spans[1:]))
        assert spans[-1].end == opened_at
        assert sum(span.duration for span in spans) == pytest.approx(
            opened_at - began)

    def test_a_step_that_gives_up_closes_its_span(self):
        dep = small_deployment(132)
        dep.contract.ibc.conn_open_ack = failing(
            dep.contract.ibc.conn_open_ack, 10**9, [])
        with pytest.raises(HandshakeError):
            dep.establish_link()
        last = dep.trace_report().spans_named("relay.handshake.step")[-1]
        assert last.attrs["datagram"] == "MsgConnOpenAck"
        assert last.end == dep.sim.now
        assert "no consensus state" in last.attrs["failed"]


# ----------------------------------------------------------------------
# Link order on a shared guest
# ----------------------------------------------------------------------

def route_order_topology(seed: int) -> TopologyConfig:
    """The 3-hop path with its links listed in route order: the sibling
    handshake on g1 is immediately followed by a classic one on g1."""
    return TopologyConfig(
        guests=(GuestSpec("g0"), GuestSpec("g1")),
        counterparties=(CounterpartySpec("cp-a"), CounterpartySpec("cp-b")),
        links=(LinkSpec("cp-a", "g0"), LinkSpec("g0", "g1"),
               LinkSpec("g1", "cp-b")),
        routes=(RouteSpec("path", ("cp-a", "g0", "g1", "cp-b")),),
        seed=seed,
    )


class TestLinkOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_fabric_builds_with_links_in_route_order(self, seed):
        dep = build_fabric(route_order_topology(seed))
        for link in dep.links:
            assert set(link.channels) == link.spec.ends
        assert dep.routes.hop_count("path") == 3

    def test_chain_of_emits_route_order_and_builds(self):
        config = TopologyConfig.chain_of(("cp-a", "g0", "g1", "cp-b"))
        assert [(l.a, l.b) for l in config.links] == [
            ("cp-a", "g0"), ("g0", "g1"), ("g1", "cp-b")]
        assert config.seed == 7  # the default seed used to crash
        dep = build_fabric(config)
        assert len(dep.routes.route("path")) == 3

    def test_step_of_another_relayer_is_not_consumed(self):
        """Two relayers on one guest: a step event carrying the other's
        payer (or another datagram kind) leaves the waiter in place."""
        dep = build_fabric(route_order_topology(3), establish=False)
        sibling = dep.link_between("g0", "g1").relayer
        classic = dep.link_between("g1", "cp-b").relayer
        g1_of_sibling, g1_of_classic = sibling.b, classic.a
        seen = []
        g1_of_classic.handshake_waiter = (
            "MsgConnOpenInit",
            lambda created, height: seen.append((created, height)))

        class Event:
            def __init__(self, kind, payer):
                self.payload = {"guest": "g1", "kind": kind, "payer": payer,
                                "created": "connection-9", "height_hint": 5}

        classic._on_handshake_step(
            Event("MsgChanOpenConfirm", g1_of_sibling.api.payer))
        classic._on_handshake_step(
            Event("MsgConnOpenInit", g1_of_sibling.api.payer))
        assert seen == [] and g1_of_classic.handshake_waiter is not None
        classic._on_handshake_step(
            Event("MsgConnOpenInit", g1_of_classic.api.payer))
        assert seen == [("connection-9", 5)]
        assert g1_of_classic.handshake_waiter is None


# ----------------------------------------------------------------------
# Blackout refusals during a guest↔guest handshake
# ----------------------------------------------------------------------

def refusing(original, refusals: int, calls: list):
    def submit(*args, **kwargs):
        calls.append(None)
        if len(calls) <= refusals:
            raise HostUnavailableError("host RPC blackout (test)")
        return original(*args, **kwargs)
    return submit


def test_back_to_back_refusals_during_sibling_handshake_do_not_raise():
    dep = build_fabric(TopologyConfig(
        guests=(GuestSpec("g0"), GuestSpec("g1")),
        links=(LinkSpec("g0", "g1"),), seed=11), establish=False)
    relayer = dep.links[0].relayer
    handshakes: list = []
    adoptions: list = []
    api = relayer.b.api
    api.submit_handshake = refusing(api.submit_handshake, 2, handshakes)
    api.sibling_update = refusing(api.sibling_update, 2, adoptions)
    dep.establish_all()
    assert len(handshakes) > 2 and len(adoptions) > 2
    assert set(dep.links[0].channels) == {"g0", "g1"}
