"""Concurrent link establishment (repro.deployment.open_transfer_links).

One loop opens any number of links at once.  Pinned here:

* N = 1 is the old serial path, bit for bit (values taken where the
  loop drove one relayer, re-taken once when the chunked LC update
  shrank to the quorum prefix: same store root, less simulated time);
* on the ``fabric_mesh`` topology neither the order the links are
  listed in nor their running concurrently is visible to correctness:
  every link opens, its two channel ends name each other, routes
  resolve, transfers land exactly once, and the run is a function of
  (seed, link order);
* the deadline names every link still pending with the step it is
  waiting on, and one link's exhausted retries still raise a
  ``HandshakeError`` naming that link.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro import Deployment, DeploymentConfig
from repro.deployment import handshake_step, open_transfer_links
from repro.errors import (
    ChannelError, HandshakeError, KeyNotFoundError, SimulationError,
)
from repro.experiments.topology import (
    TopologySweepConfig, check_topology, run_star_point,
)
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, RouteSpec, TopologyConfig,
    build_fabric,
)
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
from repro.ibc import commitment as paths
from repro.ibc.channel import ChannelState
from repro.ibc.identifiers import ChannelId, PortId
from repro.relayer.endpoint import probe

from tests.helpers import UnboundedHistory, can_cut_a_block


# ----------------------------------------------------------------------
# N = 1: the single-link world did not move
# ----------------------------------------------------------------------

#: seed -> (sim.now, dispatched events) after ``establish_link()``.
#: Pinned at 48e5e6f (one relayer driven per loop) as 120.0/667,
#: 114.0/642, 120.0/660, 120.0/657, 120.0/659; the handshake's chunked
#: LC updates then shrank from ~36 host transactions to ~15 and the same
#: steps finished sooner: 84.0/453, 96.0/495, 102.0/525, 96.0/492,
#: 96.0/493.  Those updates now hand their staging transactions to the
#: host in one wave instead of three at a time (and a validator no
#: longer submits a second SIGN_BLOCK while its first is in the
#: mempool), which moved the pins once more: 84.0/447, 84.0/446,
#: 84.0/444, 90.0/489, 78.0/429.  The host chain then stopped spending
#: an event on a slot with an empty mempool; times stay, and each count
#: below is the one before minus the ``host.slots.idle`` the tracer
#: reads over the same window (127, 117, 131, 135, 109): 84.0/320,
#: 84.0/329, 84.0/313, 90.0/354, 78.0/320.  Two more moves, pinned
#: apart: the relayer stopped polling the counterparty every 3 s,
#: queued handshake-free datagrams behind their header and made
#: LC_FINALIZE part of the update's wave (84.0/284, 78.0/290, 84.0/281,
#: 90.0/316, 78.0/283: fewer events, seed 1 a block sooner); then every
#: host subscription got an observation-delay stream of its own, which
#: redraws every delay in the world (78.0/269, 96.0/303, 84.0/285,
#: 96.0/299, 84.0/288).  Then every counterparty-side handshake step
#: rode behind its guest header in one counterparty block instead of
#: one block after it: four steps a block sooner each (60.0/280,
#: 66.0/271, 60.0/271, 66.0/275, 60.0/280).  Then the relayer's 45 s
#: watchdog went, and with it its one tick inside the establishment
#: window: one event fewer each, times unchanged (the values below).
#: The store root did not move through any of it.
PARENT_SINGLE_LINK = {
    0: (60.0, 279), 1: (66.0, 270), 2: (60.0, 270),
    3: (66.0, 274), 4: (60.0, 279),
}
PARENT_STORE_ROOT = (
    "45242cbb13d0568bdbc4bcb7cf4cb6dc5556d749b0dc4381cb125bae1818e51c")


@pytest.mark.parametrize("seed", sorted(PARENT_SINGLE_LINK))
def test_single_link_is_bit_identical_to_the_serial_loop(seed):
    dep = Deployment(DeploymentConfig(seed=seed))
    channels = dep.establish_link()
    assert channels == (ChannelId("channel-0"), ChannelId("channel-0"))
    assert (dep.sim.now, dep.sim.dispatched_events()) == PARENT_SINGLE_LINK[seed]
    assert bytes(dep.contract.store.root_hash).hex() == PARENT_STORE_ROOT


def test_second_call_adds_a_channel_over_the_open_connection():
    dep = Deployment(DeploymentConfig(seed=3))
    first = dep.establish_link()
    connections = dict(dep.contract.ibc.connections)
    second = dep.establish_link()
    assert dep.contract.ibc.connections == connections
    assert second == (ChannelId("channel-1"), ChannelId("channel-1"))
    assert first != second


# ----------------------------------------------------------------------
# Link order and concurrency are invisible to correctness
# ----------------------------------------------------------------------

ROUTE = ("cp-a", "g0", "g1", "cp-b")
SPOKES = tuple(LinkSpec(name, "cp-a") for name in ("g2", "g3", "g4", "g5"))
FIRST, SIBLING, LAST = (
    LinkSpec("cp-a", "g0"), LinkSpec("g0", "g1"), LinkSpec("g1", "cp-b"))
LINK_ORDERS = {
    "route-order": SPOKES + (FIRST, SIBLING, LAST),
    "sibling-first": (SIBLING,) + SPOKES + (FIRST, LAST),
    "sibling-last": SPOKES + (FIRST, LAST, SIBLING),   # bench/'s order
    "reversed": (LAST, SIBLING, FIRST) + SPOKES[::-1],
    "interleaved": (SPOKES[0], LAST, SPOKES[1], SIBLING, SPOKES[2], FIRST,
                    SPOKES[3]),
}
AMOUNT = 777


def mesh(seed: int, order: str) -> TopologyConfig:
    """bench/'s ``fabric_mesh`` topology (plus the route back)."""
    return TopologyConfig(
        guests=tuple(GuestSpec(f"g{i}") for i in range(6)),
        counterparties=(CounterpartySpec("cp-a"), CounterpartySpec("cp-b")),
        links=LINK_ORDERS[order],
        routes=(RouteSpec("path", ROUTE), RouteSpec("back", ROUTE[::-1])),
        host=HostConfig(spike_probability=0.0), seed=seed,
    )


def establishment(dep) -> tuple:
    return (dep.sim.now, dep.sim.dispatched_events(),
            [(link.established_at, sorted(link.channels.items()))
             for link in dep.links])


def held(bank, address: str) -> int:
    return sum(amount for (holder, _), amount in bank.balances().items()
               if holder == address)


@pytest.mark.parametrize("order", sorted(LINK_ORDERS))
@pytest.mark.parametrize("seed", range(12))
def test_link_order_and_concurrency_are_invisible(seed, order):
    dep = build_fabric(mesh(seed, order))

    # Every link opened, and no later than the fabric did.
    assert max(link.established_at for link in dep.links) == dep.sim.now
    for link in dep.links:
        assert set(link.channels) == link.spec.ends
        # Each end's channel names the other end's as its counterparty.
        (a, a_chan), (b, b_chan) = link.channels.items()
        port = PortId(link.spec.port)
        for chain, mine, theirs in ((a, a_chan, b_chan), (b, b_chan, a_chan)):
            ibc = (dep.guests[chain].contract.ibc if chain in dep.guests
                   else dep.counterparties[chain].ibc)
            end = ibc.channel(port, mine)
            assert end.state == ChannelState.OPEN
            assert end.counterparty_channel_id == theirs

    # Routes resolve through FabricLink.channels, the only lookup.
    for name, hops in (("path", ROUTE), ("back", ROUTE[::-1])):
        assert [(hop.chain, hop.channel) for hop in dep.routes.route(name)] == [
            (chain, str(dep.link_between(chain, nxt).channels[chain]))
            for chain, nxt in zip(hops, hops[1:])]
    # cp-a hands its five channel ids out in the order the ChanOpenTrys
    # land, whatever order the links are listed in: everything below
    # reads an id through FabricLink.channels, never by position.
    on_cp_a = [int(link.channels["cp-a"].rsplit("-", 1)[1])
               for link in dep.links if "cp-a" in link.spec.ends]
    assert sorted(on_cp_a) == [0, 1, 2, 3, 4]

    # Same seed, same order: the same establishment, event for event.
    assert establishment(build_fabric(mesh(seed, order))) == establishment(dep)

    # One routed and one spoke transfer each way, exactly once.
    cp_a, cp_b = dep.counterparties["cp-a"], dep.counterparties["cp-b"]
    g2 = dep.guests["g2"].contract
    g2_user = str(dep.user["g2"])
    cp_a.bank.mint("alice", "uatom", 2 * AMOUNT)
    cp_b.bank.mint("carol", "uosmo", AMOUNT)
    g2.bank.mint(g2_user, "stone", AMOUNT)
    checker = dep.conservation_checker()

    dep.send_along("path", "alice", "bob", "uatom", AMOUNT)
    dep.send_along("back", "carol", "dave", "uosmo", AMOUNT)
    spoke = dep.link_between("g2", "cp-a")

    def spoke_in():
        payload = cp_a.transfer.make_payload(
            spoke.channels["cp-a"], "uatom", AMOUNT,
            sender="alice", receiver=g2_user)
        return cp_a.ibc.send_packet(
            PortId("transfer"), spoke.channels["cp-a"], payload, 0.0)

    cp_a.submit(spoke_in)
    payload = g2.transfer.make_payload(
        spoke.channels["g2"], "stone", AMOUNT, sender=g2_user, receiver="erin")
    dep.user_api["g2"].send_packet(
        "transfer", str(spoke.channels["g2"]), payload, 0.0)

    def landed() -> list[int]:
        return [held(cp_b.bank, "bob"), held(cp_a.bank, "dave"),
                g2.bank.balance(g2_user, f"transfer/{spoke.channels['g2']}/uatom"),
                held(cp_a.bank, "erin")]

    deadline = dep.sim.now + 1_800.0
    while landed() != [AMOUNT] * 4 and dep.sim.now < deadline:
        dep.run_for(30.0)
    dep.run_for(300.0)   # acks unwind; a duplicate would credit twice
    assert landed() == [AMOUNT] * 4
    report = checker.check()
    assert report.ok, report.failures[:3]
    for name in ("g0", "g1"):
        forward = dep.guests[name].contract.forward
        assert forward.unwinds == 0
        assert forward.forwards_settled == forward.forwards_started == 2


def establish_with_a_block_cut_ahead(step: str, proven_by: str) -> None:
    """A guest block cut earlier in the very host slot a step lands in
    carries that slot but proves the end as it was before the step (on
    a shared guest a neighbour link's datagram cuts such blocks; found
    at seed 2, where cp-b rejected the ConnOpenConfirm built on one
    eight times over).  Which seeds meet it moves with every timing
    change, so it is built here: the guest's ``step`` goes out behind a
    GENERATE_BLOCK of the test's own, in one transaction.  The step's
    event names the block after that one, and the counterparty's
    ``proven_by`` is proven there and submitted once."""
    dep = Deployment(DeploymentConfig(
        seed=0, tracing=True, guest=GuestConfig(delta_seconds=10.0)))
    contract = dep.contract
    api = dep.relayer.a.api
    submit = api.submit_handshake

    def cut_ahead(msg, on_done, prelude=()):
        if type(msg).__name__ != step:
            submit(msg, on_done, prelude)
            return
        # Hold the cranker off until the step has landed, and wait
        # until a block can be cut.
        dep.cranker.paused = True
        if not can_cut_a_block(dep):
            dep.sim.schedule(0.4, cut_ahead, msg, on_done, prelude)
            return

        def landed(result):
            dep.cranker.paused = False
            on_done(result)

        submit(msg, landed, (ins.generate_block(),) + tuple(prelude))

    api.submit_handshake = cut_ahead
    steps: list[tuple[int, int]] = []
    dep.host.subscribe("HandshakeStep", lambda event: (
        event.payload["kind"] == step
        and steps.append((event.slot, event.payload["height_hint"]))))
    counterparty = dep.relayer.b
    submit_there = counterparty.submit_handshake
    proven_at: list[int] = []

    def record(msg, then, failed):
        if type(msg).__name__ == proven_by:
            proven_at.append(msg.proof_height)
        submit_there(msg, then, failed)

    counterparty.submit_handshake = record
    channels = dep.establish_link()
    assert channels == (ChannelId("channel-0"), ChannelId("channel-0"))
    [(slot, height)] = steps
    # The precondition: a block was cut ahead of the step in its slot.
    assert contract.block_at(height - 1).header.host_slot == slot
    assert proven_at == [height]
    assert "relay.handshakes.retried" not in dep.trace_report().counters
    assert len(dep.counterparty.ibc.connections) == 1


def test_block_cut_earlier_in_the_slot_of_a_step_is_not_proven_against():
    """ConnOpenTry: the guest's Init created the end, so the early block
    has no such path."""
    establish_with_a_block_cut_ahead("MsgConnOpenInit", "MsgConnOpenTry")


def test_block_cut_before_a_step_updated_the_end_is_not_proven_against():
    """ConnOpenConfirm: the guest's Ack updated an end that exists, so
    the early block holds its previous value (INIT, not OPEN)."""
    establish_with_a_block_cut_ahead("MsgConnOpenAck", "MsgConnOpenConfirm")


def changes(contract, holds) -> Counter:
    """Heights whose block's state view answers ``holds`` differently
    from the block before it."""
    return Counter(height for height in range(1, contract.head.height + 1)
                   if holds(contract.state_view(height))
                   != holds(contract.state_view(height - 1)))


def value(view, path: str):
    try:
        return view.get(path)
    except KeyNotFoundError:
        return None


@pytest.mark.parametrize("seed", [0, 2])
def test_every_guest_write_names_the_block_that_commits_it(seed):
    """For every guest ``HandshakeStep`` and ``PacketReceived``, the
    block at ``height_hint`` is the first whose state view holds the
    write: over the path's establishment, where links sharing a guest
    cut blocks in each other's slots, and a routed transfer.  The audit
    reads every height's view, so the guests keep them all."""
    with UnboundedHistory():
        written_once(seed)


def written_once(seed: int) -> None:
    dep = build_fabric(TopologyConfig.chain_of(ROUTE, seed=seed), establish=False)
    steps: dict[str, list[int]] = {name: [] for name in dep.guests}
    acks: dict[str, list] = {name: [] for name in dep.guests}
    dep.host.subscribe("HandshakeStep", lambda event: steps[
        event.payload["guest"]].append(event.payload["height_hint"]))
    dep.host.subscribe("PacketReceived", lambda event: acks[
        event.payload["guest"]].append(
            (event.payload["packet"], event.payload["height_hint"])))
    dep.establish_all()
    dep.counterparties["cp-a"].bank.mint("alice", "uatom", AMOUNT)
    dep.send_along("path", "alice", "bob", "uatom", AMOUNT)
    dep.run_for(300.0)
    assert held(dep.counterparties["cp-b"].bank, "bob") == AMOUNT

    for name, guest in dep.guests.items():
        contract = guest.contract
        ibc = contract.ibc
        # Two links per guest, four guest-side steps each: every step
        # writes one end at its height, and nothing else writes an end.
        assert len(steps[name]) == 8
        ends = ([paths.connection_path(ident) for ident in ibc.connections]
                + [paths.channel_path(port, ident) for port, ident in ibc.channels])
        assert sum((changes(contract, lambda view, path=path: value(view, path))
                    for path in ends), Counter()) == Counter(steps[name])
        # One ack, written once: the block it names is where it appears.
        [(packet, height)] = acks[name]
        prefix = paths.ack_prefix(packet.destination_port,
                                  packet.destination_channel)
        assert changes(contract, lambda view: probe(
            view, prefix, packet.sequence, sealed=True)) == Counter([height])


# ----------------------------------------------------------------------
# Deadline and failure attribution
# ----------------------------------------------------------------------

def path_fabric(seed: int):
    """cp-a — g0 — g1 — cp-b, wired but not established, with g1
    refusing the guest↔guest link's ``ChanOpenTry``."""
    dep = build_fabric(TopologyConfig.chain_of(ROUTE, seed=seed),
                       establish=False)

    def refuse(*args, **kwargs):
        raise ChannelError("port closed for maintenance")

    # g1 is the responder on g0-g1 only; on g1-cp-b it initiates.
    dep.guests["g1"].contract.ibc.chan_open_try = refuse
    return dep


def opened_channels(link) -> int:
    return len(link.relayer.a.channels)


class TestAttribution:
    def test_deadline_names_every_pending_link_and_its_step(self):
        dep = path_fabric(5)
        with pytest.raises(SimulationError) as raised:
            dep.establish_all(max_seconds_per_link=60.0)
        message = str(raised.value)
        assert "incomplete after 60 s" in message
        for link in dep.links:
            relayer = link.relayer
            named = f"{relayer.a.chain_id}-{relayer.b.chain_id} (waiting on "
            # Pending, read off the two chains: a channel end of this
            # link's connection is not open on both of them yet.
            pending = not all(
                any(chan.state == ChannelState.OPEN
                    and chan.connection_id == end.connection_id
                    for chan in end.ibc.channels.values())
                for end in (relayer.a, relayer.b))
            assert (named in message) == pending, named
            if pending:
                step = handshake_step(relayer, link.spec.port)
                assert f"{named}{step})" in message
        assert "g0-g1 (waiting on ChanOpenTry)" in message

    def test_budget_counts_from_the_common_start(self):
        """200 s is enough for the neighbours (each ~120 s) only because
        they ran at once; the refused link is the one left pending."""
        dep = path_fabric(5)
        with pytest.raises(SimulationError) as raised:
            dep.establish_all(max_seconds_per_link=200.0)
        # Stopped by the first event at or past the budget.
        assert 200.0 <= dep.sim.now < 201.0
        assert str(raised.value).endswith(
            "200 s: g0-g1 (waiting on ChanOpenTry)")
        assert [opened_channels(link) for link in dep.links] == [1, 0, 1]

    def test_exhausted_retries_raise_naming_the_link(self):
        dep = path_fabric(5)
        with pytest.raises(HandshakeError, match="MsgChanOpenTry") as raised:
            dep.establish_all()
        assert "link g0<->g1" in str(raised.value)
        assert "port closed for maintenance" in str(raised.value)
        assert [opened_channels(link) for link in dep.links] == [1, 0, 1]

    def test_every_step_is_named_as_the_handshake_advances(self):
        """``handshake_step`` reads the two chains: stepping one link
        through both dances names all eight datagrams in order."""
        dep = Deployment(DeploymentConfig(seed=9))
        seen: list[str] = []
        done: list = []
        dep.relayer.open_connection(
            lambda a, b: dep.relayer.open_channel(
                PortId("transfer"), PortId("transfer"),
                lambda a_chan, b_chan: done.append((a_chan, b_chan))))
        while not done:
            step = handshake_step(dep.relayer, "transfer")
            if not seen or seen[-1] != step:
                seen.append(step)
            assert dep.sim.step()
        assert seen == [f"{dance}Open{step}" for dance in ("Conn", "Chan")
                        for step in ("Init", "Try", "Ack", "Confirm")]


# ----------------------------------------------------------------------
# When each link opened
# ----------------------------------------------------------------------

def test_establish_spans_reconcile_to_the_total_as_max():
    config = mesh(2024, "sibling-last")
    config.tracing = True
    dep = build_fabric(config)
    spans = dep.sim.trace.report().spans_named("fabric.establish")
    assert len(spans) == len(dep.links)
    assert {span.key for span in spans} == {
        f"{link.relayer.a.chain_id}-{link.relayer.b.chain_id}"
        for link in dep.links}
    assert all(span.start == 0.0 for span in spans)
    assert sorted(span.end for span in spans) == sorted(
        link.established_at for link in dep.links)
    assert max(span.duration for span in spans) == dep.sim.now
    assert sum(span.duration for span in spans) > 3 * dep.sim.now


def test_open_transfer_links_returns_links_in_the_order_given():
    dep = build_fabric(mesh(1, "reversed"), establish=False)
    links = [(link.relayer, link.spec.port) for link in dep.links]
    opened = open_transfer_links(dep.sim, links)
    for (relayer, port), link in zip(links, opened):
        assert (PortId(port), link.a_channel) in relayer.a.channels
        assert (PortId(port), link.b_channel) in relayer.b.channels
        assert link.opened_at <= dep.sim.now


# ----------------------------------------------------------------------
# The regression gate on the shape
# ----------------------------------------------------------------------

class TestEstablishGate:
    def test_gate_fails_serial_growth_and_passes_flat(self):
        config = TopologySweepConfig(transfers_per_guest=1,
                                     settle_seconds=600.0)
        points = [run_star_point(n, config) for n in (1, 4)]
        record = {"schema": "topology-sweep/v1", "points": points}
        assert check_topology(record) == []
        assert points[1]["establish_seconds"] <= 1.5 * points[0]["establish_seconds"]
        # What opening the four links one after the other recorded.
        points[1]["establish_seconds"] = 498.0
        assert check_topology(record) == [
            # 102 s of N=1 before the update's staging wave went out
            # at once, 90 s before the handshake steps rode behind
            # their headers.
            "N=4: established in 498 s, over 1.5 x the 72 s of N=1"]

    def test_committed_record_passes_the_gate(self):
        record = json.loads(
            (Path(__file__).parent.parent / "BENCH_topology.json").read_text())
        assert check_topology(record) == []
        seconds = {p["guests"]: p["establish_seconds"] for p in record["points"]}
        assert seconds[8] <= 1.5 * seconds[1]
