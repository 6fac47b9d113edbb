"""One door to the host: every one-shot relayer write to a guest rides
the bundle queue.

A confirm-seal transaction and a guest handshake step go out the way a
packet bundle does — ``Relayer._enqueue_bundle`` → ``_pump_bundles``,
behind the circuit breaker, with the one ``HostUnavailableError``
handler.  The chunked light-client update (``LcUpload``) is the one
stream outside it.  Pinned here:

* while the breaker is open, the relayer's payers attempt nothing but
  the breaker's probes (the update's staging stream aside), and no
  blackout refusal escapes;
* a relayer that crashes with a handshake step held by a blackout
  submits nothing until it restarts;
* ``ForkedConfirmRelayer`` (``tests/helpers.py``), which kept a batched
  flush's seals and the handshake steps off the queue with private
  blackout timers, against ``Relayer`` over hypothesis chaos plans:
  where no blackout met a seal or a step, the same events, roots,
  packet counters and submitted bytes; otherwise the same settled state,
  every accepted ack sealed exactly once.
"""

from functools import partial
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.deployment
import repro.fabric.deployment
from repro import Deployment, DeploymentConfig, ids
from repro.chaos import ChaosInjector, FaultPlan
from repro.checkpoint.snapshot import world_roots
from repro.errors import HostUnavailableError
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, TopologyConfig, build_fabric,
)
from repro.guest.config import GuestConfig
from repro.guest.instructions import Op
from repro.ibc.identifiers import ChannelId, PortId
from repro.relayer.relayer import Relayer, RelayerConfig
from repro.validators.profiles import simple_profiles

from tests.helpers import BlockRecorder, ForkedConfirmRelayer

PORT = PortId("transfer")

#: The opcodes of a chunked light-client update's own transactions.
LC_STREAM = (Op.CHUNK, Op.LC_SIG_BATCH, Op.LC_FINALIZE)


def opcodes(transaction) -> tuple:
    return tuple(instruction.data[0] for instruction in transaction.instructions)


class HostTap:
    """Every transaction the host is asked to take from ``payers`` —
    refused ones included — with what was true when it was asked:
    ``(time, breaker state, kind, opcodes per transaction, refused)``,
    ``kind`` being ``"submit"`` or ``"bundle"``.  ``accepted`` keeps the
    payer and instruction bytes of each call the host took."""

    def __init__(self, host, relayer, payers) -> None:
        self.host, self.relayer, self.payers = host, relayer, set(payers)
        self.attempts: list[tuple] = []
        self.accepted: list[tuple] = []
        #: tx id -> the seals it carries, one (guest program, CONFIRM_ACK
        #: bytes) each.
        self.confirms: dict = {}
        self._submit, self._submit_bundle = host.submit, host.submit_bundle
        host.submit, host.submit_bundle = self.submit, self.submit_bundle

    def submit(self, transaction, on_result=None):
        self._call("submit", [transaction], partial(
            self._submit, transaction, on_result=on_result))

    def submit_bundle(self, transactions, tip_lamports, on_result=None):
        self._call("bundle", list(transactions), partial(
            self._submit_bundle, transactions, tip_lamports,
            on_result=on_result))

    def _call(self, kind: str, transactions: list, forward) -> None:
        if transactions[0].payer not in self.payers:
            forward()
            return
        entry = [self.host.sim.now, self.relayer.breaker.state, kind,
                 tuple(map(opcodes, transactions)), False]
        self.attempts.append(entry)
        try:
            forward()
        except HostUnavailableError:
            entry[-1] = True
            raise
        self.accepted.append(tuple(
            (tx.payer, tuple(ins.data for ins in tx.instructions))
            for tx in transactions))
        for tx in transactions:
            if opcodes(tx)[0] == Op.CONFIRM_ACK:
                self.confirms[tx.tx_id] = [
                    (ins.program_id, ins.data) for ins in tx.instructions]

    def queue_attempts(self) -> list[tuple]:
        """The attempts that went through the bundle queue: all but the
        light-client update's own stream."""
        return [entry for entry in self.attempts
                if not (entry[2] == "submit" and entry[3][0][0] in LC_STREAM)]


class HeldWatch:
    """Counts the seals and handshake steps ``relayer`` queued that did
    not go out at once: refused by a blackout, or held behind the
    breaker or the bundles before them."""

    def __init__(self, relayer) -> None:
        self.relayer = relayer
        self.held = 0
        self._enqueue = relayer._enqueue_bundle
        relayer._enqueue_bundle = self.enqueue

    def enqueue(self, launch) -> None:
        self._enqueue(launch)
        if (getattr(launch.func, "__name__", None) in (
                "confirm_acks", "submit_handshake")
                and launch in self.relayer._bundle_queue):
            self.held += 1


# ----------------------------------------------------------------------
# The breaker holds every relayer write
# ----------------------------------------------------------------------

def loaded_link(kind: str, relayer_class=Relayer, seed: int = 3):
    """A batched link, ``g0`` to a counterparty or to a second guest,
    established, with transfers both ways every 2 s for 300 s."""
    config = GuestConfig(delta_seconds=90.0, min_stake_lamports=1)
    guests = tuple(GuestSpec(name, config) for name in (
        ("g0", "g1") if kind == "guest-guest" else ("g0",)))
    cps = () if kind == "guest-guest" else (CounterpartySpec("g1"),)
    with patch.object(repro.fabric.deployment, "Relayer", relayer_class):
        return build_fabric(TopologyConfig(
            guests=guests, counterparties=cps, links=(LinkSpec("g0", "g1"),),
            seed=seed, relayer=RelayerConfig(batch_max_packets=16)))


def test_the_breaker_holds_every_relayer_write():
    """Under a blackout long enough to open the breaker, with seals
    and packet datagrams staged on both link kinds: while the breaker
    is open the relayer's payers ask the host for nothing but the
    light-client update's own stream (a probe runs with the breaker
    half-open), and the run finishes, so no refusal escaped.
    (``ForkedConfirmRelayer`` fails it: it flushes its batched seals on
    a 2 s timer of their own, breaker open or not.)"""
    for kind in ("guest-cp", "guest-guest"):
        dep = loaded_link(kind)
        relayer = dep.links[0].relayer
        tap = HostTap(dep.host, relayer, dep.links[0].payers)
        watch = HeldWatch(relayer)
        ChaosInjector(dep, FaultPlan().add(
            "host_blackout", at=40.0, duration=90.0)).arm()
        link = dep.links[0]
        for _ in range(150):
            for name, amount in (("g0", 3), ("g1", 5)):
                send(dep, link, name, amount)
            dep.run_for(2.0)
        dep.run_for(600.0)
        attempts = tap.queue_attempts()
        assert relayer.breaker.opened_count > 0, kind
        assert not [entry for entry in attempts if entry[1] == "open"], kind
        # The case the rule is about happened: seals staged during the
        # blackout were held in the queue.
        assert watch.held > 0, kind
        # Once the host answered, the breaker closed and the queue ran dry.
        assert relayer.settled(), kind


def send(dep, link, name: str, amount: int) -> None:
    """One transfer from chain ``name`` over ``link``, minted first; a
    guest send the host refuses is simply not sent."""
    channel = ChannelId(link.channels[name])
    if name in dep.counterparties:
        chain = dep.counterparties[name]
        sender = f"{name}-user"
        chain.bank.mint(sender, "stone", amount)
        payload = chain.transfer.make_payload(
            channel, "stone", amount, sender, f"{name}-hodler")
        chain.submit(partial(chain.ibc.send_packet, PORT, channel, payload, 0.0))
        return
    chain = dep.guests[name].contract
    sender = str(dep.user[name])
    chain.bank.mint(sender, "stone", amount)
    payload = chain.transfer.make_payload(
        channel, "stone", amount, sender, f"{name}-hodler")
    try:
        dep.user_api[name].send_packet(str(PORT), str(channel), payload)
    except HostUnavailableError:
        chain.bank.transfer(chain.transfer.escrow_address(channel),
                            sender, "stone", amount)


# ----------------------------------------------------------------------
# A down relayer submits no handshake step
# ----------------------------------------------------------------------

def test_a_down_relayer_submits_no_handshake_step():
    """``open_connection`` starts inside a blackout, so its first step,
    on the guest, is refused and held; the relayer crashes before the
    RPC answers, and the blackout ends.  Until ``restart`` the relayer's
    payer asks the host for nothing — a held step went with the crash.
    (``ForkedConfirmRelayer`` fails it: it re-submits the refused step
    on a timer of its own, which the crash does not cancel.)"""
    dep = Deployment(DeploymentConfig(
        seed=7, guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4)))
    relayer = dep.relayer
    tap = HostTap(dep.host, relayer, [dep.relayer_payer])
    ChaosInjector(dep, FaultPlan().add("host_blackout", at=0.0,
                                       duration=30.0)).arm()
    relayer.open_connection(lambda a, b: None)
    assert [entry[-1] for entry in tap.attempts] == [True]  # refused, held
    assert relayer._bundle_queue
    dep.run_for(1.0)
    relayer.crash()
    crashed = len(tap.attempts)
    dep.run_for(300.0)  # the blackout ends at 30 s
    assert len(tap.attempts) == crashed
    relayer.restart()
    assert not relayer._bundle_queue


# ----------------------------------------------------------------------
# The differential: ForkedConfirmRelayer against Relayer
# ----------------------------------------------------------------------

class Run:
    """``g0`` linked to ``g1`` — a second guest on the host or an
    IBC-native counterparty.  The link is established under ``setup``
    (blackouts and drops meet its handshake steps), then carries
    ``rounds`` bursts of ``burst`` transfers each way, ``gap`` seconds
    apart, under ``plan``, and is drained."""

    def __init__(self, relayer_class, kind: str, seed: int, setup: FaultPlan,
                 plan: FaultPlan, batch: int, rounds: int, burst: int,
                 gap: float) -> None:
        config = GuestConfig(delta_seconds=90.0, min_stake_lamports=1)
        guests = tuple(GuestSpec(name, config) for name in (
            ("g0", "g1") if kind == "guest-guest" else ("g0",)))
        cps = () if kind == "guest-guest" else (CounterpartySpec("g1"),)
        with patch.object(repro.deployment, "Relayer", relayer_class), \
                patch.object(repro.fabric.deployment, "Relayer", relayer_class):
            dep = self.dep = build_fabric(TopologyConfig(
                guests=guests, counterparties=cps,
                links=(LinkSpec("g0", "g1"),), seed=seed,
                relayer=RelayerConfig(batch_max_packets=batch,
                                      batch_flush_seconds=1.0)),
                establish=False)
        self.crashes = bool(plan.of_kind("relayer_crash"))
        self.recorder = BlockRecorder(dep.host)
        link = self.link = dep.links[0]
        relayer = self.relayer = link.relayer
        assert type(relayer) is relayer_class
        self.tap = HostTap(dep.host, relayer, link.payers)
        self.watch = HeldWatch(relayer)
        ChaosInjector(dep, setup).arm()
        dep.establish_all(max_seconds_per_link=1_200.0)
        ChaosInjector(dep, plan).arm()
        for index in range(rounds * burst):
            for name in ("g0", "g1"):
                send(dep, link, name, 1 + index % 5)
            if index % burst == burst - 1:
                dep.run_for(gap)
        dep.run_for(900.0 + plan.horizon())

    def chain(self, name: str):
        dep = self.dep
        if name in dep.counterparties:
            return dep.counterparties[name]
        return dep.guests[name].contract

    def ibc_state(self) -> dict:
        """What the packets did on both chains and the vouchers that
        moved."""
        out = {}
        for name in ("g0", "g1"):
            chain = self.chain(name)
            counters = chain.ibc.counters
            voucher = f"transfer/{self.link.channels[name]}/stone"
            out[name] = (counters.packets_sent, counters.packets_received,
                         counters.packets_acknowledged,
                         counters.packets_timed_out,
                         chain.bank.total_supply(voucher))
        return out

    def assert_settled(self) -> None:
        """Every send acknowledged, each exactly once, and every ack a
        guest wrote sealed — unless the host lost its seal transaction
        in transit (a chaos drop): nothing resubmits a dropped seal
        before a restart re-reads it.  Without a relayer crash each seal
        lands once; across one, a seal the dead incarnation sent may
        land beside the restart's."""
        for name in ("g0", "g1"):
            peer = "g1" if name == "g0" else "g0"
            sent, received = (self.chain(name).ibc.counters,
                              self.chain(peer).ibc.counters)
            assert sent.packets_sent == sent.packets_acknowledged, name
            assert received.packets_received == sent.packets_acknowledged, name
            assert not self.chain(name).ibc.standing, name
        receipts = [receipt for block in self.recorder.blocks
                    for receipt in block.receipts]
        landed = [seal for receipt in receipts if receipt.success
                  for seal in self.tap.confirms.get(receipt.tx_id, ())]
        if not self.crashes:
            assert len(landed) == len(set(landed))
        in_blocks = {receipt.tx_id for receipt in receipts}
        lost = {seal for tx_id, seals in self.tap.confirms.items()
                if tx_id not in in_blocks for seal in seals} - set(landed)
        # A guest seals the acks it wrote that its peer accepted.
        assert len(set(landed)) + len(lost) == sum(
            self.chain("g1" if name == "g0" else "g0")
            .ibc.counters.packets_acknowledged
            for name in ("g0", "g1") if name in self.dep.guests)


WINDOW_KINDS = ("host_blackout", "host_tx_drop")


@st.composite
def plans(draw, kinds) -> FaultPlan:
    plan = FaultPlan()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds))
        extra = {}
        if kind == "host_tx_drop":
            extra["probability"] = draw(st.sampled_from((0.2, 0.5)))
        plan.add(kind, at=float(draw(st.integers(0, 60))),
                 duration=float(draw(st.integers(5, 30))), **extra)
    return plan


def differential(*args) -> tuple[Run, Run]:
    """Run ``Run(cls, *args)`` for the twin, then for the relayer from
    the same id mints, and compare."""
    states = ids.mint_states()
    twin = Run(ForkedConfirmRelayer, *args)
    ids.rewind_mints(states)
    one = Run(Relayer, *args)
    for run in (twin, one):
        run.assert_settled()
    if not (twin.relayer.deferred or one.watch.held):
        assert one.tap.accepted == twin.tap.accepted
        assert world_roots(one.dep) == world_roots(twin.dep)
        for name in ("g0", "g1"):
            assert one.chain(name).ibc.counters == twin.chain(name).ibc.counters
        assert one.dep.sim.dispatched_events() == twin.dep.sim.dispatched_events()
    else:
        assert one.ibc_state() == twin.ibc_state()
    return twin, one


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A blackout that holds batched seals, a drop that loses a seal
# transaction in transit, and a crash whose dead incarnation's seal
# lands beside the restart's.
@example(kind="guest-guest", seed=5, setup=FaultPlan(),
         plan=FaultPlan().add("host_blackout", at=40.0, duration=30.0),
         batch=16, rounds=3, burst=4, gap=30.0)
@example(kind="guest-guest", seed=1_022, setup=FaultPlan(),
         plan=FaultPlan().add("relayer_crash", at=22.0, duration=14.0),
         batch=1, rounds=1, burst=4, gap=3.0)
@example(kind="guest-cp", seed=10_000, setup=FaultPlan(),
         plan=FaultPlan().add("host_tx_drop", at=15.0, duration=5.0,
                              probability=0.2),
         batch=1, rounds=1, burst=4, gap=3.0)
@given(kind=st.sampled_from(("guest-cp", "guest-guest")),
       seed=st.integers(0, 10_000),
       setup=plans(WINDOW_KINDS),
       plan=plans(WINDOW_KINDS + ("relayer_crash",)),
       batch=st.sampled_from((1, 16)), rounds=st.integers(1, 3),
       burst=st.sampled_from((1, 4)), gap=st.sampled_from((3.0, 30.0)))
def test_one_door_settles_where_the_forks_settled(
        kind, seed, setup, plan, batch, rounds, burst, gap):
    differential(kind, seed, setup, plan, batch, rounds, burst, gap)
