"""A run keeps only the history something can still read — a
differential against a twin that keeps everything.

Every chain keeps its per-height history — a counterparty's block
records, a guest's state views, either chain's IBC write index — from
one block below the lowest height one of its relayers can still reach
(``Relayer._floor``: the first block that owes the peer a datagram, a
guest's first block past the one the peer's client holds, a handshake
step's proof height), and drops the rest as the chain moves on
(``IbcHost.forget``).  The test-only ``UnboundedHistory`` twin forgets
nothing.  Over hypothesis plans — guest↔counterparty and guest↔guest
links, batching on and off, relayer crash and restart, RPC blackouts,
dropped transactions and a long outage, sends with and without
deadlines — the two must end with the same events, roots, host
receipts, delivery bundles, ``IbcCounters`` and ledger, and so must a
routed fabric whose guests two relayers serve each.  Mutants that keep
a block fewer are caught, and the incremental floor equals a scan of
every kept height at every block.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ids
from repro.chaos import FaultPlan
from repro.checkpoint.snapshot import world_roots
from repro.errors import UnknownBlockError
from repro.fabric import TopologyConfig, build_fabric
from repro.ibc.host import IbcHost
from repro.relayer.relayer import Relayer
from tests.helpers import BlockRecorder, UnboundedHistory
from tests.test_delivery_pipeline import Run


def outcome(run: Run) -> tuple:
    """Everything the two worlds must agree on."""
    dep, relayer = run.dep, run.relayer
    receipts = [(receipt.slot, receipt.time, receipt.tx_id, receipt.success,
                 receipt.fee_paid, receipt.compute_consumed)
                for block in run.recorder.blocks for receipt in block.receipts]
    return (dep.sim.dispatched_events(), world_roots(dep), receipts, run.bundles,
            [run.chain(name).ibc.counters for name in ("g0", "g1")],
            dict(relayer.ledger.by_category), relayer.metrics.retries,
            relayer.metrics.timeouts_cancelled)


def twins(*args, bounded=None) -> tuple[Run, Run]:
    """``Run(Relayer, *args)`` kept unbounded, then bounded (under
    ``bounded``, a context, if given) from the same id mints."""
    states = ids.mint_states()
    with UnboundedHistory():
        unbounded = Run(Relayer, *args)
    ids.rewind_mints(states)
    if bounded is None:
        return unbounded, Run(Relayer, *args)
    with bounded:
        return unbounded, Run(Relayer, *args)


FAULT_KINDS = ("relayer_crash", "host_blackout", "host_tx_drop")


@st.composite
def plans(draw) -> FaultPlan:
    plan = FaultPlan()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        extra = {}
        if kind == "host_tx_drop":
            extra["probability"] = draw(st.sampled_from((0.2, 0.5)))
        plan.add(kind, at=float(draw(st.integers(0, 60))),
                 duration=float(draw(st.integers(5, 30))), **extra)
    if draw(st.booleans()):
        # A long outage: the relayer is down while blocks the chains
        # no longer need go by.
        plan.add("relayer_crash", at=float(draw(st.integers(70, 120))),
                 duration=float(draw(st.sampled_from((240, 400)))))
    return plan


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(("guest-cp", "guest-guest")),
       seed=st.integers(0, 10_000), plan=plans(),
       batch=st.sampled_from((1, 8)), rounds=st.integers(1, 3),
       burst=st.sampled_from((1, 4)), gap=st.sampled_from((3.0, 30.0)),
       expiring=st.booleans())
# Sends made while the relayer is down, some expiring before it is
# back: nothing but the timeout holds the peer's floor.
@example(kind="guest-cp", seed=3,
         plan=FaultPlan().add("relayer_crash", at=0.0, duration=400.0),
         batch=1, rounds=1, burst=4, gap=3.0, expiring=True)
@example(kind="guest-guest", seed=3,
         plan=FaultPlan().add("relayer_crash", at=0.0, duration=400.0),
         batch=8, rounds=1, burst=4, gap=3.0, expiring=True)
# A long outage on each link kind, batched and not, with expiring sends.
@example(kind="guest-cp", seed=3,
         plan=FaultPlan().add("relayer_crash", at=20.0, duration=400.0),
         batch=1, rounds=2, burst=4, gap=30.0, expiring=True)
@example(kind="guest-guest", seed=11,
         plan=(FaultPlan().add("host_tx_drop", at=0.0, duration=30.0,
                               probability=0.5)
               .add("relayer_crash", at=90.0, duration=240.0)),
         batch=8, rounds=3, burst=4, gap=3.0, expiring=True)
@example(kind="guest-cp", seed=5,
         plan=(FaultPlan().add("host_blackout", at=10.0, duration=20.0)
               .add("relayer_crash", at=40.0, duration=30.0)),
         batch=8, rounds=3, burst=4, gap=3.0, expiring=False)
def test_the_bounded_run_is_the_unbounded_run(
        kind, seed, plan, batch, rounds, burst, gap, expiring):
    unbounded, bounded = twins(kind, seed, plan, batch, rounds, burst, gap,
                               expiring)
    bounded.assert_settled()
    assert outcome(bounded) == outcome(unbounded)
    # The precondition: the bounded world dropped history.
    for name in ("g0", "g1"):
        assert bounded.chain(name).ibc.kept_from > 0
        assert unbounded.chain(name).ibc.kept_from == 0


class KeepFewer:
    """A mutant of the retention rule: each chain keeps ``extra`` more
    blocks fewer than the rule says — from its relayers' floor (1: the
    block below it, whose clock opens the floor's timeout window, is
    dropped) or from the block past it (2: the floor block too)."""

    def __init__(self, extra: int) -> None:
        self.extra = extra

    def __enter__(self) -> None:
        self._forget = forget = IbcHost.forget
        extra = self.extra

        def forget_fewer(ibc):
            readers = ibc.readers
            ibc.readers = [lambda reader=reader: reader() + extra
                           for reader in readers]
            try:
                return forget(ibc)
            finally:
                ibc.readers = readers

        IbcHost.forget = forget_fewer

    def __exit__(self, *exc) -> None:
        IbcHost.forget = self._forget


# A guest's clock is its own blocks, which it keeps whole: only the
# counterparty reads the block below the floor.
@pytest.mark.parametrize("kind, extra", [("guest-cp", 1), ("guest-cp", 2),
                                         ("guest-guest", 2)])
def test_a_mutant_keeping_fewer_blocks_is_caught(kind, extra):
    """A block fewer and a restart, or the next intake, reads what is
    gone: the read fails loudly, or the run comes out otherwise."""
    plan = FaultPlan().add("relayer_crash", at=20.0, duration=240.0)
    args = (kind, 3, plan, 1, 2, 4, 30.0, True)
    try:
        unbounded, mutant = twins(*args, bounded=KeepFewer(extra))
    except UnknownBlockError:
        return
    assert outcome(mutant) != outcome(unbounded)


def scanned_floor(relayer: Relayer, src) -> int:
    """``Relayer._floor`` from scratch: every kept height in turn, the
    first whose writes or expiring peer sends still owe something."""
    dst = relayer._peer(src)
    top = src.latest_final() + 1
    if src in relayer._guests:
        top = min(top, dst.client.latest_height() + 1)
    for height in range(src.ibc.kept_from + 1, top):
        candidates = ([(write.kind, write.packet)
                       for write in src.ibc.writes.get(height, ())]
                      + [("timeout", packet) for packet
                         in relayer._expiring(src, dst, height)])
        if any(relayer._due(src, dst, *candidate) for candidate in candidates):
            top = height
            break
    return min([top] + [dance.holding[1] for dance in relayer._dances
                        if dance.holding and dance.holding[0] is src])


class FloorAudit:
    """Before every forget, each reader's incremental floor against the
    scan; the pairs compared are kept."""

    def __init__(self) -> None:
        self.compared: list[tuple[int, int]] = []

    def __enter__(self) -> "FloorAudit":
        self._forget = forget = IbcHost.forget
        audit = self

        def audited(ibc):
            for reader in ibc.readers:
                relayer, (src,) = reader.func.__self__, reader.args
                audit.compared.append((reader(), scanned_floor(relayer, src)))
            return forget(ibc)

        IbcHost.forget = audited
        return self

    def __exit__(self, *exc) -> None:
        IbcHost.forget = self._forget


@pytest.mark.parametrize("kind", ["guest-cp", "guest-guest"])
def test_the_incremental_floor_is_the_scanned_floor(kind):
    plan = (FaultPlan().add("host_tx_drop", at=0.0, duration=30.0,
                            probability=0.5)
            .add("relayer_crash", at=40.0, duration=120.0))
    with FloorAudit() as audit:
        Run(Relayer, kind, 7, plan, 8, 3, 4, 3.0, True).assert_settled()
    assert all(incremental == scanned for incremental, scanned in audit.compared)
    # Not trivially so: the floor rose block after block.
    assert len({incremental for incremental, _ in audit.compared}) > 5



def routed(seed: int) -> tuple:
    """A three-hop route, cp-a — g0 — g1 — cp-b, whose middle relayer is
    down for 200 s while transfers enter it: each guest is served by two
    relayers and keeps from the lower of their floors."""
    dep = build_fabric(TopologyConfig.chain_of(
        ("cp-a", "g0", "g1", "cp-b"), seed=seed))
    recorder = BlockRecorder(dep.host)
    middle = dep.links[1].relayer
    dep.sim.schedule(10.0, middle.crash)
    dep.sim.schedule(210.0, middle.restart)
    dep.counterparties["cp-a"].bank.mint("alice", "uatom", 100)
    for _ in range(6):
        dep.send_along("path", "alice", "bob", "uatom", 7)
        dep.run_for(20.0)
    dep.run_for(900.0)
    chains = {name: guest.contract for name, guest in dep.guests.items()}
    chains.update(dep.counterparties)
    outcome = (dep.sim.dispatched_events(), world_roots(dep),
               [(receipt.tx_id, receipt.success, receipt.fee_paid)
                for block in recorder.blocks for receipt in block.receipts],
               {name: chain.ibc.counters for name, chain in chains.items()},
               [dict(link.relayer.ledger.by_category) for link in dep.links])
    return outcome, chains


@pytest.mark.parametrize("seed", [0, 4])
def test_a_guest_two_relayers_serve_keeps_what_either_can_reach(seed):
    states = ids.mint_states()
    with UnboundedHistory():
        unbounded, _ = routed(seed)
    ids.rewind_mints(states)
    bounded, chains = routed(seed)
    assert bounded == unbounded
    assert bounded[3]["cp-b"].packets_received == 6
    for name in ("g0", "g1"):
        ibc = chains[name].ibc
        assert len(ibc.readers) == 2   # one per relayer serving it
        assert 0 < ibc.kept_from <= min(reader() for reader in ibc.readers) - 1
