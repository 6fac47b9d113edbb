"""A regression gate on idle simulated time that needs no clock.

The paper's deployment carried a send every few tens of minutes (§V),
and an IBC chain does nothing between datagrams; a simulated hour in
which nothing is sent should cost the event loop only the actors that
genuinely poll.  Before the host chain learnt to sleep it dispatched a
slot event every 400 ms whatever its mempool held (~9 000 an idle hour,
half of ``paper_day``'s events), and a counterparty whose stake churned
rebuilt its ~9 kB validator-set preimage member by member to change 8
bytes of it (~210 times an hour).  The counts below are a function of
the code and a seed (docs/PERFORMANCE.md, "Idle time is free").
"""

from collections import Counter

from repro import Deployment, DeploymentConfig
from repro.workload import WorkloadEngine, WorkloadSpec

from tests.helpers import BlockRecorder, CounterpartyRecorder, tap_cold_framings

HOUR = 3_600.0
#: 400 ms slots on a grid of accumulated float additions: a window's
#: edge can fall either side of a tick.
SLOTS_AN_HOUR = (8_999, 9_000)

#: What an established link dispatches in an hour without traffic: the
#: cranker's poll (1 789), counterparty blocks (600), validator sweeps
#: (325) and the one empty guest block the Δ rule forces, with its
#: signatures (~28) — 2 742 at seed 0.  The ceiling is ~1.2 x that; the
#: slot loop alone used to add 9 000, the relayer's 3 s poll of the
#: counterparty 1 200 (it subscribes to the chain's blocks now: no event
#: of its own) and its 45 s watchdog 80 (each wait has its own wake-up
#: now: tests/test_relayer_backstops.py).
IDLE_HOUR_EVENT_CEILING = 3_320


def run_with_census(sim, until):
    """Run to ``until``; return how often each callback was dispatched
    (by qualified name, a partial by its function's) and when each host
    slot ticked."""
    census, ticks = Counter(), []
    while sim._queue and sim._queue[0][0] <= until:
        time, _, handle = sim._queue[0]
        if not handle.cancelled:
            name = getattr(handle.callback, "func", handle.callback).__qualname__
            census[name] += 1
            if name == "HostChain._produce_slot":
                ticks.append(time)
        sim.step()
    sim.run_until(until)
    return census, ticks


def established(seed=0):
    deployment = Deployment(DeploymentConfig(seed=seed, tracing=True))
    channels = deployment.establish_link()
    return deployment, channels


def test_an_idle_hour_costs_only_the_pollers(monkeypatch):
    deployment, _ = established()
    sim, host = deployment.sim, deployment.host
    sim.run_until(sim.now + 600.0)  # the handshakes' last receipts land
    recorder, records = BlockRecorder(host), CounterpartyRecorder(
        deployment.counterparty).records
    slot_before = host.slot
    events_before = sim.dispatched_events()
    framings = tap_cold_framings(monkeypatch)

    census, ticks = run_with_census(sim, sim.now + HOUR)

    slots = host.slot - slot_before
    assert slots in SLOTS_AN_HOUR
    assert sim.dispatched_events() - events_before == sum(census.values())
    assert sum(census.values()) <= IDLE_HOUR_EVENT_CEILING, census
    assert not any(name.startswith("Relayer._poll") for name in census)
    assert not any(name.startswith("Relayer._watchdog") for name in census)
    # The hour is not dead: Δ elapsed once, so the cranker cut an empty
    # guest block and the validators signed it.  Those transactions are
    # the only reason the host chain ticked at all...
    produced = recorder.blocks
    receipts = sum(len(block.receipts) for block in produced)
    assert 0 < receipts <= len(ticks) == len(produced) <= 4 * receipts
    assert len(ticks) * 100 <= slots
    # ...and it ticked for the last time in the slot of its last receipt.
    assert ticks[-1] == max(
        block.time for block in produced if block.receipts)
    assert host._slot_handle is None

    report = deployment.trace_report()
    assert (report.counter("host.blocks") + report.counter("host.slots.idle")
            == host.slot)
    # ~210 of the hour's 600 counterparty blocks churned a validator's
    # power; none framed the set again.
    digests = {record.header.next_validators_hash
               for record in records.values()}
    assert len(digests) > 150
    assert len(framings) <= 1


def test_a_loaded_hour_produces_blocks_for_transactions(monkeypatch):
    """The paper's regime: a send a minute.  The host chain produces a
    block where a transaction waits, not 9 000 an hour."""
    deployment, channels = established()
    host = deployment.host
    records = CounterpartyRecorder(deployment.counterparty).records
    framings = tap_cold_framings(monkeypatch)
    engine = WorkloadEngine(deployment, [channels], WorkloadSpec(
        mode="open-poisson", offered_pps=0.02, duration=HOUR,
        drain_seconds=0.0))
    # ``slot`` first: the read settles the idle-slot counter.
    slot_before = host.slot
    before = deployment.trace_report().counter
    engine.start()
    deployment.sim.run_until(engine.end_time)
    assert engine.delivered > 50

    slots = host.slot - slot_before
    after = deployment.trace_report().counter
    blocks = after("host.blocks") - before("host.blocks")
    executed = after("host.tx.executed") - before("host.tx.executed")
    idle = after("host.slots.idle") - before("host.slots.idle")
    assert slots in SLOTS_AN_HOUR and slots == blocks + idle
    assert 0 < blocks <= 2 * executed
    # The counterparty's churned sets were all patched from one
    # preimage; the sets the guest's light client rebuilds on chain from
    # a staged delta are new sets and frame their own.
    held = {id(record.validator_set) for record in records.values()}
    held.add(id(deployment.counterparty.validator_set()))
    assert sum(id(valset) in held for valset in framings) <= 1
