"""A regression gate on the relayer's dead waits that reads no clock.

A relayer is a courier (Alg. 2, §III-C): between a commit on one chain
and the datagram on the other it should wait only for work some chain is
doing.  Three waits in which none was were removed together
(docs/PERFORMANCE.md, "No dead waits"), and each is pinned here as a
count over a dozen sends each way on a default ``Deployment``:

(a) guest -> counterparty: the packets a header proves are queued behind
    it for the same counterparty block (they used to wait for the
    update's result, i.e. one whole block);
(b) counterparty -> guest: a send reaches the relayer at the instant of
    its block, through ``CounterpartyChain.on_block`` — no kernel event
    polls for it;
(c) a default-plan light-client update is one wave, LC_FINALIZE
    included (it used to go out once the last staging receipt was back:
    a second host round trip); the ``"paper"`` plan keeps Fig. 4's
    sequence, LC_FINALIZE after its last staging receipt;
(d) none of it changes what an update is: as many executed host
    transactions and lamports as its plan says.

Two more are pinned over one link's establishment:

(e) every counterparty-side handshake step executes in the counterparty
    block that accepts its proof height's header;
(f) every proof-carrying step on a guest↔guest link executes in the
    host transaction that adopts its proof height (its SIBLING_UPDATE
    rides in front of it), and the only SIBLING_UPDATE transactions of
    their own are the two that prime the clients.

And one over a link's establishment and its traffic:

(g) every finalised guest block gets at most one cover, and every
    cover carries a packet, a due write or an epoch change — including
    a block that finalises while an ack waits for the next one.

And one over a crash:

(h) a restart covers each finalised guest block that owes something
    once, and no other: acks written while the relayer was down ride
    their block's one cover (they used to get one cover each).

(a)-(c) and (e)-(h) each fail on the commit before theirs, by count.
"""

from collections import defaultdict

import pytest

from repro import Deployment, DeploymentConfig
from repro.encoding import Reader
from repro.guest.instructions import Op, generate_block
from repro.relayer.relayer import Relayer, RelayerConfig
from repro.units import BASE_FEE_LAMPORTS_PER_SIGNATURE

from tests.helpers import can_cut_a_block

SENDS = 12
LC_OPS = (Op.CHUNK, Op.LC_SIG_BATCH, Op.LC_FINALIZE)


class Traffic:
    """An established default deployment, probed at four edges, with
    ``SENDS`` transfers sent each way a few seconds apart."""

    def __init__(self, plan: str = "quorum", seed: int = 0) -> None:
        dep = self.dep = Deployment(DeploymentConfig(
            seed=seed, tracing=True,
            relayer=RelayerConfig(lc_update_plan=plan)))
        sim, chain = dep.sim, dep.counterparty
        #: Kernel events whose callback is a relayer's ``_poll``.
        self.relayer_polls = 0
        schedule_at = sim.schedule_at

        def counting_schedule_at(time, callback, *args):
            self.relayer_polls += (
                getattr(callback, "__name__", "") == "_poll"
                and isinstance(getattr(callback, "__self__", None), Relayer))
            return schedule_at(time, callback, *args)

        sim.schedule_at = counting_schedule_at
        guest_channel, cp_channel = dep.establish_link()
        updates_before = len(dep.relayer.metrics.lc_updates)

        #: guest height -> counterparty height its header was accepted at.
        self.accepted: dict[int, int] = {}
        #: (sequence, proof height, counterparty height received at).
        self.received: list[tuple[int, int, int]] = []
        client, ibc = dep.relayer.b.client, chain.ibc
        update, recv_packet = client.update, ibc.recv_packet

        def watched_update(message):
            result = update(message)
            self.accepted.setdefault(message.header.height, chain.height)
            return result

        def watched_recv(packet, proof, proof_height, **kwargs):
            ack = recv_packet(packet, proof, proof_height, **kwargs)
            self.received.append((packet.sequence, proof_height, chain.height))
            return ack

        client.update, ibc.recv_packet = watched_update, watched_recv

        #: (committed height, read by the relayer at), per send.
        self.handed: list[tuple[int, float]] = []
        relay_block, end = dep.relayer._relay_block, dep.relayer.b

        def watched_relay_block(src, height):
            if src is end:
                self.handed += [(height, sim.now)
                                for write in end.ibc.writes.get(height, ())
                                if write.kind == "send"]
            return relay_block(src, height)

        dep.relayer._relay_block = watched_relay_block

        #: buffer id -> [op, submitted at, receipt seen at, receipt].
        self.waves: dict[int, list[list]] = defaultdict(list)
        submit = dep.host.submit

        def watched_submit(transaction, on_result=None):
            data = transaction.instructions[0].data
            if data[0] not in LC_OPS:
                return submit(transaction, on_result=on_result)
            row = [Op(data[0]), sim.now, None, None]
            self.waves[Reader(data[1:]).read_varint()].append(row)

            def seen(receipt):
                row[2:] = sim.now, receipt
                on_result(receipt)

            submit(transaction, on_result=seen)

        dep.host.submit = watched_submit

        dep.contract.bank.mint("alice", "GUEST", 10_000)
        chain.bank.mint("carol", "PICA", 10_000)

        def cp_send():
            data = chain.transfer.make_payload(cp_channel, "PICA", 5, "carol", "dave")
            chain.ibc.send_packet(chain.transfer_port, cp_channel, data, 0.0)

        for _ in range(SENDS):
            payload = dep.contract.transfer.make_payload(
                guest_channel, "GUEST", 5, "alice", "bob")
            dep.user_api.send_packet("transfer", str(guest_channel), payload)
            chain.submit(cp_send)
            dep.run_for(7.0)      # off the 6 s block grid, and the 3 s one
        dep.run_for(600.0)
        self.updates = dep.relayer.metrics.lc_updates[updates_before:]
        assert dep.contract.ibc.counters.packets_received == SENDS
        assert chain.ibc.counters.packets_received == SENDS


@pytest.fixture(scope="module")
def traffic():
    return Traffic()


def test_a_packet_lands_in_the_block_that_accepts_its_header(traffic):
    assert sorted(seq for seq, _, _ in traffic.received) == list(range(SENDS))
    for sequence, proof_height, received_at in traffic.received:
        assert traffic.accepted[proof_height] == received_at, sequence
    assert "relay.header_push.refused" not in traffic.dep.trace_report().counters


def test_a_counterparty_send_is_handed_over_at_its_block(traffic):
    blocks = traffic.dep.counterparty.blocks
    assert len(traffic.handed) == SENDS
    for height, at in traffic.handed:
        assert at - blocks[height].header.time == 0
    assert traffic.relayer_polls == 0


def test_a_default_update_is_one_wave_finalize_included(traffic):
    assert len(traffic.updates) == len(traffic.waves) >= 3
    for result, rows in zip(traffic.updates, traffic.waves.values()):
        assert [row[0] for row in rows].count(Op.LC_FINALIZE) == 1
        assert len({submitted for _, submitted, _, _ in rows}) == 1
        assert result.peak_in_flight == len(rows)


def test_the_paper_plan_still_finalizes_after_its_last_staging_receipt():
    traffic = Traffic(plan="paper")
    assert len(traffic.updates) == len(traffic.waves) >= 3
    for result, rows in zip(traffic.updates, traffic.waves.values()):
        *staging, finalize = rows
        assert finalize[0] is Op.LC_FINALIZE
        assert all(row[0] is not Op.LC_FINALIZE for row in staging)
        assert finalize[1] == max(seen for _, _, seen, _ in staging)
        assert finalize[3].time == result.last_tx_time
        assert result.peak_in_flight == 3
        assert_update_is_its_plan(result, rows)


def assert_update_is_its_plan(result, rows) -> None:
    assert result.success
    receipts = [receipt for _, _, _, receipt in rows]
    assert len(receipts) == result.transaction_count
    assert all(receipt.success for receipt in receipts)
    owed = BASE_FEE_LAMPORTS_PER_SIGNATURE * (
        result.transaction_count + result.signature_count)
    assert sum(receipt.fee_paid for receipt in receipts) == owed == result.total_fee


def test_a_handshake_step_executes_in_the_block_that_accepts_its_header(
        monkeypatch):
    """(e) Every counterparty-side handshake datagram executes at the
    counterparty height that accepted its proof height's header; on the
    commit before, all four of one ``establish_link`` were a block late."""
    from repro.ibc.messages import apply_handshake
    from repro.relayer import endpoint

    dep = Deployment(DeploymentConfig())
    chain, client = dep.counterparty, dep.guest_client
    update = client.update
    #: guest height -> counterparty height its header was accepted at.
    accepted: dict[int, int] = {}
    #: (datagram, proof height, counterparty height it executed at).
    executed: list[tuple[str, int, int]] = []

    def watched_update(message):
        result = update(message)
        accepted.setdefault(message.header.height, chain.height)
        return result

    def watched_apply(ibc, msg):
        result = apply_handshake(ibc, msg)
        executed.append((type(msg).__name__, msg.proof_height, chain.height))
        return result

    client.update = watched_update
    monkeypatch.setattr(endpoint, "apply_handshake", watched_apply)
    dep.establish_link()
    on_time = [name for name, proof_height, height in executed
               if accepted.get(proof_height) == height]
    assert on_time == ["MsgConnOpenTry", "MsgConnOpenConfirm",
                       "MsgChanOpenTry", "MsgChanOpenConfirm"]


def test_an_update_executes_and_pays_what_its_plan_says(traffic):
    for result, rows in zip(traffic.updates, traffic.waves.values()):
        assert_update_is_its_plan(result, rows)
    ledger = traffic.dep.relayer.ledger
    assert ledger.transactions["lc-update"] == sum(
        result.transaction_count for result in traffic.dep.relayer.metrics.lc_updates)


def test_a_sibling_step_executes_in_the_transaction_that_adopts_its_height():
    """(f) On the commit before, each of the six proof-carrying steps of
    a guest↔guest ``establish_all`` waited for an adoption transaction
    of its own: eight SIBLING_UPDATE transactions, no step on time."""
    from repro.fabric import GuestSpec, LinkSpec, TopologyConfig, build_fabric
    from repro.guest.instructions import decode
    from repro.ibc.messages import decode_handshake

    dep = build_fabric(TopologyConfig(
        guests=(GuestSpec("g0"), GuestSpec("g1")),
        links=(LinkSpec("g0", "g1"),)), establish=False)
    relayer = dep.links[0].relayer
    ends = {end.contract.program_id: end for end in (relayer.a, relayer.b)}
    #: (guest, height) -> the host transaction that adopted it.
    adopted: dict[tuple[str, int], int] = {}
    #: (datagram, adopted its proof height in the same transaction?)
    steps: list[tuple[str, bool]] = []
    standalone_adoptions = 0
    running: list = []
    execute = dep.host._execute

    for end in ends.values():
        def watched_adopt(height, adopt=end.client.adopt, guest=end.chain_id):
            fresh = adopt(height)
            if fresh:
                adopted[(guest, height)] = running[-1].tx_id
            return fresh
        end.client.adopt = watched_adopt

    def watched_execute(pending, block):
        nonlocal standalone_adoptions
        transaction = pending.transaction
        running.append(transaction)
        receipt = execute(pending, block)
        running.pop()
        ops = [(instruction.program_id, instruction.data)
               for instruction in transaction.instructions]
        if receipt.success and all(data[0] == Op.SIBLING_UPDATE
                                   for _, data in ops):
            standalone_adoptions += 1
        for program_id, data in ops:
            if receipt.success and data[0] == Op.HANDSHAKE:
                msg = decode_handshake(decode(Op.HANDSHAKE, data[1:])[0])
                height = getattr(msg, "proof_height", None)
                if height is not None:
                    guest = ends[program_id].chain_id
                    steps.append((type(msg).__name__,
                                  adopted.get((guest, height)) == transaction.tx_id))
        return receipt

    dep.host._execute = watched_execute
    dep.establish_all()
    assert steps == [
        (name, True) for name in (
            "MsgConnOpenTry", "MsgConnOpenAck", "MsgConnOpenConfirm",
            "MsgChanOpenTry", "MsgChanOpenAck", "MsgChanOpenConfirm")]
    assert standalone_adoptions == 2


def test_a_finalised_block_is_one_cover_with_something_due():
    """(g) Every finalised guest block gets at most one cover, and every
    cover carries a packet, a due write (an ack, a handshake step) or an
    epoch change: nothing else needs the counterparty's client at that
    height.  One delivery is led by a GENERATE_BLOCK of the test's own,
    so its ack is written while the block cut ahead of it is not yet
    finalised, with no packet in it; on the commit before, that block
    was covered anyway (a header pushed with nothing proven behind it)
    because the ack was staged, though for the next block."""
    dep = Deployment(DeploymentConfig(seed=3))
    relayer, chain, guest = dep.relayer, dep.counterparty, dep.relayer.a
    #: guest height -> datagrams each cover of it carried, header aside.
    covers: dict[int, list[int]] = defaultdict(list)
    submitted = 0
    submit, cover = chain.submit, relayer.b.updates.cover

    def counting_submit(call, on_result=None):
        nonlocal submitted
        submitted += 1
        return submit(call, on_result=on_result)

    def watched_cover(height, then):
        before = submitted
        cover(height, then)
        covers[height].append(submitted - before - 1)

    chain.submit, relayer.b.updates.cover = counting_submit, watched_cover
    #: Sequences of the guest's acks proven so far.
    proven: set[int] = set()
    #: Finalised heights at which every ack the guest wrote and the
    #: relayer has not proven yet named a later block.
    ahead_of_acks: list[int] = []
    prove, relay_block = relayer._prove, relayer._relay_block

    def watched_prove(src, kind, packet, height):
        if src is guest and kind == "ack":
            proven.add(packet.sequence)
        return prove(src, kind, packet, height)

    def watched_relay_block(src, height):
        waiting = [write.height for write in guest.ibc.written.values()
                   if write.kind == "ack" and write.packet.sequence not in proven]
        if src is guest and waiting and min(waiting) > height:
            ahead_of_acks.append(height)
        return relay_block(src, height)

    relayer._prove, relayer._relay_block = watched_prove, watched_relay_block
    guest_channel, cp_channel = dep.establish_link()
    deliver = guest.api.deliver_packet

    def cut_ahead(*args, on_done, prelude=(), **kwargs):
        # Hold the cranker off until this delivery has cut its block.
        dep.cranker.paused = True
        if not can_cut_a_block(dep):
            dep.sim.schedule(0.4, lambda: cut_ahead(
                *args, on_done=on_done, prelude=prelude, **kwargs))
            return
        guest.api.deliver_packet = deliver

        def done(result):
            dep.cranker.paused = False
            on_done(result)

        deliver(*args, on_done=done,
                prelude=(generate_block(),) + tuple(prelude), **kwargs)

    dep.contract.bank.mint("alice", "GUEST", 10_000)
    chain.bank.mint("carol", "PICA", 10_000)

    def cp_send():
        data = chain.transfer.make_payload(cp_channel, "PICA", 5, "carol", "dave")
        chain.ibc.send_packet(chain.transfer_port, cp_channel, data, 0.0)

    for index in range(4):
        if index == 2:
            guest.api.deliver_packet = cut_ahead
        payload = dep.contract.transfer.make_payload(
            guest_channel, "GUEST", 5, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_channel), payload)
        chain.submit(cp_send)
        dep.run_for(60.0)
    dep.run_for(600.0)
    assert chain.ibc.counters.packets_acknowledged == 4
    assert dep.contract.ibc.counters.packets_acknowledged == 4
    # The precondition: a block finalised while an ack waited for a
    # later one.
    assert ahead_of_acks
    assert all(len(carried) == 1 for carried in covers.values()), covers
    idle = [height for height, carried in covers.items()
            if carried == [0]
            and not dep.contract.block_at(height).header.last_in_epoch]
    assert idle == []


def test_a_restart_is_one_cover_per_finalised_block_with_something_due():
    """(h) A restart relays what the chains still owe through the same
    one cover per finalised guest block as live intake: the relayer
    crashes behind a wave of delivery bundles that land while it is
    down, the guest writes their acks in several blocks finalised before
    the restart, and the restart covers each such height once — not once
    per re-read ack, as the commit before did — and no other."""
    dep = Deployment(DeploymentConfig(seed=5))
    relayer, chain, guest = dep.relayer, dep.counterparty, dep.relayer.a
    guest_channel, cp_channel = dep.establish_link()
    chain.bank.mint("carol", "PICA", 10_000)
    deliver = guest.api.deliver_packet
    delivered = 0

    def crash_behind(*args, **kwargs):
        nonlocal delivered
        deliver(*args, **kwargs)
        delivered += 1
        if delivered == SENDS:
            guest.api.deliver_packet = deliver
            dep.sim.schedule(0.0, relayer.crash)

    def cp_send():
        data = chain.transfer.make_payload(cp_channel, "PICA", 5, "carol", "dave")
        chain.ibc.send_packet(chain.transfer_port, cp_channel, data, 0.0)

    guest.api.deliver_packet = crash_behind
    for _ in range(SENDS):
        chain.submit(cp_send)
        dep.run_for(2.0)
    while not relayer.paused:
        dep.sim.step()
    dep.run_for(240.0)
    # Acks owed, by the height of the finalised block that commits them
    # (no guest send and no epoch end is owed besides).
    final = guest.latest_final()
    owed = [write.height for write in guest.ibc.written.values()
            if write.kind == "ack" and relayer.b.has_commitment(write.packet)]
    due = {height for height in owed if height <= final}
    # The precondition: acks owed in at least two finalised blocks, more
    # of them than blocks.
    assert len(due) >= 2 and sum(height <= final for height in owed) > len(due)

    covers: dict[int, int] = defaultdict(int)
    cover = relayer.b.updates.cover

    def watched_cover(height, then):
        covers[height] += 1
        cover(height, then)

    relayer.b.updates.cover = watched_cover
    relayer.restart()
    relayer.b.updates.cover = cover
    finalised = {height: count for height, count in covers.items()
                 if height <= final}
    assert finalised == {height: 1 for height in due}
    dep.run_for(600.0)
    assert chain.ibc.counters.packets_acknowledged == SENDS


# ----------------------------------------------------------------------
# (i) One intake per block, reading O(1) per write
# ----------------------------------------------------------------------

class IntakeAudit:
    """Every intake call of every relayer of ``dep``: the block's IBC
    writes, the peer sends its clock expires, and the chain reads it
    made — commitment and receipt reads (``has_commitment``,
    ``has_receipt``), plus one proof per datagram it found owed (an
    upper bound: a datagram is proven at most once)."""

    def __init__(self, dep, relayers, monkeypatch) -> None:
        from repro.relayer.endpoint import _End
        self.calls: list[tuple[int, int, int]] = []
        probes = [0]
        for name in ("has_commitment", "has_receipt"):
            def counting(end, packet, read=getattr(_End, name)):
                probes[0] += 1
                return read(end, packet)

            monkeypatch.setattr(_End, name, counting)
        for relayer in relayers:
            relay_block = relayer._relay_block

            def audited(src, height, relayer=relayer, relay_block=relay_block):
                dst = relayer.b if src is relayer.a else relayer.a
                writes = len(src.ibc.writes.get(height, ()))
                expiring = len(dst.ibc.expiring(src.time(height - 1),
                                                src.time(height)))
                before = probes[0]
                owed = relay_block(src, height)
                self.calls.append((writes, expiring, probes[0] - before + owed))
                return owed

            relayer._relay_block = audited

    def check(self) -> None:
        assert sum(writes for writes, _, _ in self.calls) > 100  # traffic ran
        for writes, expiring, reads in self.calls:
            # Two reads and a proof per write (a send's commitment and
            # receipt, an ack's origin commitment), as many per expiring
            # peer send: nothing scanned.
            assert reads <= 3 * (writes + expiring), (writes, expiring, reads)


def relayer_subscriptions(dep) -> set[str]:
    return {name for name, observers in dep.host._subscribers.items()
            for callback, _ in observers
            if isinstance(getattr(callback, "__self__", None), Relayer)}


def test_a_soaked_link_reads_per_write_and_gets_no_packet_events(monkeypatch):
    """A ``link_soak``-shaped run: three channels of counterparty sends
    at 20 pps into a batching relayer."""
    from repro.experiments.throughput import build_linked_deployment
    from repro.guest.config import GuestConfig
    from repro.workload import WorkloadEngine, WorkloadSpec

    dep, channels = build_linked_deployment(
        29, GuestConfig(delta_seconds=120.0, min_stake_lamports=1), (32, 2.0), 3)
    audit = IntakeAudit(dep, [dep.relayer], monkeypatch)
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        offered_pps=20.0, duration=60.0, drain_seconds=90.0))
    engine.start()
    dep.sim.run_until(engine.end_time)
    assert engine.delivered == engine.sent == 1_200
    audit.check()
    assert relayer_subscriptions(dep) == {"FinalisedBlock", "HandshakeStep"}


def test_a_fabric_reads_per_write_and_gets_no_packet_events(monkeypatch):
    """A fabric-shaped run: two guests linked to one counterparty and to
    each other, sends every way, several relayers on one host."""
    from repro.fabric import (
        CounterpartySpec, GuestSpec, LinkSpec, TopologyConfig, build_fabric,
    )
    from repro.ibc.identifiers import ChannelId, PortId

    dep = build_fabric(TopologyConfig(
        guests=(GuestSpec("g0"), GuestSpec("g1")),
        counterparties=(CounterpartySpec("hub"),),
        links=(LinkSpec("g0", "hub"), LinkSpec("g1", "hub"),
               LinkSpec("g0", "g1")), seed=7))
    audit = IntakeAudit(dep, [link.relayer for link in dep.links], monkeypatch)
    hub, port = dep.counterparties["hub"], PortId("transfer")
    hub.bank.mint("hub-user", "uatom", 10_000)
    for name in ("g0", "g1"):
        dep.guests[name].contract.bank.mint(str(dep.user[name]), name, 10_000)

    def send(src, dst):
        link = dep.link_between(src, dst)
        channel = ChannelId(link.channels[src])
        if src == "hub":
            hub.submit(lambda: hub.ibc.send_packet(port, channel, hub.transfer.make_payload(
                channel, "uatom", 1, "hub-user", f"{dst}-hodler"), 0.0))
            return
        contract = dep.guests[src].contract
        payload = contract.transfer.make_payload(
            channel, src, 1, str(dep.user[src]), f"{dst}-hodler")
        dep.user_api[src].send_packet(str(port), str(channel), payload)

    routes = [("hub", "g0"), ("hub", "g1"), ("g0", "hub"), ("g1", "hub"),
              ("g0", "g1"), ("g1", "g0")]
    for index in range(60):
        dep.sim.schedule(1.0 + index, send, *routes[index % len(routes)])
    dep.run_for(600.0)
    for name in ("g0", "g1"):
        assert dep.guests[name].contract.ibc.counters.packets_acknowledged == 20
    assert hub.ibc.counters.packets_acknowledged == 20
    audit.check()
    assert relayer_subscriptions(dep) == {"FinalisedBlock", "HandshakeStep"}
