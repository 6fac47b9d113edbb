"""Regression: a timeout on hop 2 refunds hop 1 exactly once.

Two layers of coverage.  The protocol-level tests pin the exactly-once
mechanics (the commitment deletion makes a second timeout, a late
delivery, and a replayed unwind all impossible).  The full-stack test
reuses the ``repro.chaos`` relayer-crash fault against the sibling
relayer carrying hop 2, proving the refund also lands exactly once when
the relayer loses all volatile state mid-flight and rebuilds from
on-chain history.
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.guest.config import GuestConfig
from repro.errors import PacketError, ReproError
from repro.fabric import TopologyConfig, build_fabric
from repro.fabric.conservation import ConservationChecker
from repro.fabric.forward import forward_receiver

from tests.helpers import ProtoFabric


def _three_chain():
    fabric = ProtoFabric()
    fabric.add_chain("a")
    fabric.add_chain("m", forwarding=True, hop_timeout_seconds=600.0)
    fabric.add_chain("b")
    fabric.link("a", "m")
    fabric.link("m", "b")
    return fabric


def _expire_hop2(fabric):
    """Send a 300-token 2-hop transfer, drop the onward hop, expire it.
    Returns the dropped onward packet."""
    a, m = fabric.chains["a"], fabric.chains["m"]
    a.bank.mint("alice", "uatom", 300)
    receiver = forward_receiver(
        [("transfer", str(fabric.channels[("m", "b")]))], "bob")
    a.send_transfer(fabric.channels[("a", "m")], "uatom", 300,
                    "alice", receiver)
    dropped = []
    fabric.pump(drop=lambda src, p: src is m and not dropped
                and (dropped.append(p) or True))
    fabric.now += m.forward.hop_timeout_seconds + 100.0
    fabric.expire(m, dropped[0])
    return dropped[0]


class TestExactlyOnceMechanics:
    def test_second_timeout_submission_rejected_on_chain(self):
        fabric = _three_chain()
        m = fabric.chains["m"]
        onward = _expire_hop2(fabric)
        fabric.pump()  # the unwind return transfer reaches alice
        assert fabric.chains["a"].bank.balance("alice", "uatom") == 300
        assert m.forward.unwinds == 1
        # A crashed-and-restarted relayer replaying the same timeout is
        # refused: the packet commitment was deleted by the first one.
        with pytest.raises(PacketError, match="no outstanding commitment"):
            fabric.expire(m, onward)
        assert fabric.chains["a"].bank.balance("alice", "uatom") == 300
        assert m.forward.unwinds == 1

    def test_late_delivery_after_timeout_rejected(self):
        fabric = _three_chain()
        m = fabric.chains["m"]
        onward = _expire_hop2(fabric)
        fabric.pump()
        # A redelivery attempt of the expired onward packet (the other
        # replay a restarted relayer can make) also fails on-chain.
        with pytest.raises(ReproError):
            fabric.deliver(m, onward)
        assert fabric.chains["b"].bank.total_supply(
            f"transfer/{fabric.channels[('b', 'm')]}/"
            f"transfer/{fabric.channels[('m', 'a')]}/uatom") == 0
        assert fabric.chains["a"].bank.balance("alice", "uatom") == 300
        checker = ConservationChecker(
            {name: chain.bank for name, chain in fabric.chains.items()})
        assert checker.check().ok

    def test_unwind_return_transfer_not_replayable(self):
        fabric = _three_chain()
        a, m = fabric.chains["a"], fabric.chains["m"]
        _expire_hop2(fabric)
        # Capture the unwind return packet instead of delivering it.
        unwind = []
        fabric.pump(drop=lambda src, p: src is m
                    and (unwind.append(p) or True))
        assert len(unwind) == 1
        fabric.deliver(m, unwind[0])
        assert a.bank.balance("alice", "uatom") == 300
        # Exactly-once on the refund leg too: the receipt seals it.
        with pytest.raises(ReproError):
            fabric.deliver(m, unwind[0])
        assert a.bank.balance("alice", "uatom") == 300


class TestCrashRestartRefund:
    """Full-stack: hop 2 rides the g0—g1 sibling link; the sibling
    relayer crashes before delivering, stays down past the hop deadline,
    and must cancel the expired send exactly once after rebuilding."""

    @pytest.fixture(scope="class")
    def wreck(self):
        # A short block-production heartbeat (Δ) so the destination
        # chain keeps finalising empty blocks while idle — the timeout
        # is only provable once a finalised g1 block passes the
        # deadline (there is no traffic on g1 to advance it otherwise).
        heartbeat = GuestConfig(delta_seconds=240.0)
        base = TopologyConfig.chain_of(
            ("cp-a", "g0", "g1", "cp-b"), seed=47,
            hop_timeout_seconds=240.0)
        dep = build_fabric(replace(base, guests=tuple(
            replace(g, config=heartbeat) for g in base.guests)))
        cp_a = dep.counterparties["cp-a"]
        cp_a.bank.mint("alice", "uatom", 1_000_000)
        checker = dep.conservation_checker()

        # Point the chaos relayer hook at the hop-2 relayer, then take
        # it down before it can deliver and keep it down well past the
        # 240 s hop deadline.  A second, later crash checks that the
        # restart's history replay cannot re-run the refund.
        sibling = dep.link_between("g0", "g1").relayer
        dep.relayer = sibling
        plan = (FaultPlan(label="hop2-crash")
                .add("relayer_crash", at=5.0, duration=900.0)
                .add("relayer_crash", at=2200.0, duration=60.0))
        ChaosInjector(dep, plan).arm()

        dep.send_along("path", "alice", "bob", "uatom", 4_321)
        dep.run_for(3_000.0)
        return dep, checker, sibling

    def test_origin_sender_refunded_exactly_once(self, wreck):
        dep, checker, sibling = wreck
        cp_a = dep.counterparties["cp-a"]
        assert cp_a.bank.balance("alice", "uatom") == 1_000_000
        # The refund is a real unwind, not a never-sent packet: hop 1
        # completed and the forwarding middleware reversed it.
        g0 = dep.guests["g0"].contract
        assert g0.forward.forwards_started == 1
        assert g0.forward.unwinds == 1
        assert not g0.forward._forwards

    def test_timeout_cancelled_once_despite_two_crashes(self, wreck):
        dep, checker, sibling = wreck
        assert sibling.metrics.crashes == 2
        assert sibling.metrics.timeouts_cancelled == 1
        assert not sibling.a.outstanding and not sibling.b.outstanding

    def test_nothing_reached_the_far_side(self, wreck):
        dep, checker, sibling = wreck
        g1 = dep.guests["g1"].contract
        cp_b = dep.counterparties["cp-b"]
        assert all(denom.split("/")[-1] != "uatom"
                   for (_, denom) in g1.bank.balances())
        assert all(addr != "bob" for (addr, _) in cp_b.bank.balances())

    def test_conservation_after_the_wreck(self, wreck):
        dep, checker, sibling = wreck
        report = checker.check()
        assert report.ok, report.failures
