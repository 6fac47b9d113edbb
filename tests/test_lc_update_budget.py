"""Regression gates on the chunked light-client update that read no
wall clock: what one update carries, and how a relayer spends it.

*Size.*  A default ``CounterpartyConfig`` chain (190 validators, ~85 %
commit participation, power churn on a third of its blocks) is followed
for 50 updates by a ``TendermintLightClient`` that adopts exactly what
each plan ships, as the Guest Contract would.  The transaction counts
are byte arithmetic over a seeded chain, so the gate cannot flake; what
it guards is docs/PERFORMANCE.md, "Ship only the quorum": the default
plan stays near 15 host transactions and the paper plan stays Fig. 4's
~36.

*Submission discipline.*  A link under 20 pps of counterparty sends is
watched at the host's RPC edge for ~90 simulated seconds: the default
plan puts an update's whole wave, LC_FINALIZE included, in flight at one
instant and paces updates by ``LC_UPDATE_TXS_PER_SECOND``; the paper
plan keeps its three in flight and LC_FINALIZE behind them
(docs/PERFORMANCE.md, "Spend the update in one burst", "No dead waits").
Blackouts, drops and crashes mid-wave are scripted at the same edge.
"""

from collections import defaultdict
from statistics import mean, median

import pytest

from repro import Deployment, DeploymentConfig
from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.simsig import SimSigScheme
from repro.encoding import Reader
from repro.errors import ClientError, HostUnavailableError
from repro.experiments.throughput import build_linked_deployment
from repro.guest.config import GuestConfig
from repro.guest.instructions import Op
from repro.lightclient.chunked import (
    plan_paper_update,
    plan_update_chunks,
    usable_chunk_bytes,
)
from repro.lightclient.tendermint import TendermintLightClient, ValidatorSet
from repro.relayer.relayer import RelayerConfig
from repro.relayer.updates import LC_UPDATE_PLANS, LC_UPDATE_TXS_PER_SECOND
from repro.sim import Simulation
from repro.validators.profiles import simple_profiles
from repro.workload import WorkloadEngine, WorkloadSpec
from tests.helpers import CounterpartyRecorder

UPDATES = 50
#: Counterparty blocks between updates: ``paper_day``'s ~260 s mean gap
#: between counterparty sends, in 6 s blocks, so the trusted set has
#: churned by a dozen or so power changes each time, as it has there.
BLOCKS_BETWEEN = 40


def follow(planner, seed=2024):
    """[(plan, commit size)] over ``UPDATES`` heights, each adopted from
    the shipped signatures before the next is planned."""
    sim = Simulation(seed=seed)
    chain = CounterpartyChain(sim, SimSigScheme(), CounterpartyConfig())
    client = TendermintLightClient(chain.config.chain_id,
                                   ValidatorSet(members=()))
    block = chain.config.block_seconds
    plans = []
    while len(plans) < UPDATES:
        sim.run_until(sim.now + BLOCKS_BETWEEN * block)
        while True:
            update = chain.light_client_update()
            plan = planner(update, client.trusted_validator_set())
            shipped = {public_key: signature
                       for batch in plan.signature_batches
                       for public_key, signature in batch}
            try:
                client.apply_verified(update.header, set(shipped),
                                      update.validator_set, signatures=shipped)
                break
            except ClientError:
                # About one commit in a hundred is signed by 70 % of the
                # validators holding under 2/3 of the power.  Either plan
                # ships it whole, the client refuses it, and the relayer
                # moves on to the next block.
                assert plan.signature_count == len(update.commit)
                sim.run_until(sim.now + block)
        assert client.latest_height() == update.header.height
        plans.append((plan, len(update.commit)))
    return plans


def test_default_plan_stays_near_fifteen_transactions():
    plans = follow(plan_update_chunks)
    # Reads 14.7 transactions, 0.44 of the signatures, 215 staged bytes.
    assert mean(plan.transaction_count for plan, _ in plans) <= 17
    shipped = sum(plan.signature_count for plan, _ in plans)
    assert shipped <= 0.55 * sum(commit for _, commit in plans)
    staged = [sum(map(len, plan.data_chunks)) for plan, _ in plans]
    assert median(staged) <= usable_chunk_bytes()
    # Only the first update (trust on first use) uploads the set whole.
    assert [len(plan.data_chunks) > 1 for plan, _ in plans] == (
        [True] + [False] * (UPDATES - 1))


def test_paper_plan_stays_in_the_figure_4_range():
    plans = follow(plan_paper_update)
    # Reads 36.7.
    assert 30 <= mean(plan.transaction_count for plan, _ in plans) <= 43
    assert all(plan.signature_count == commit for plan, commit in plans)


# ----------------------------------------------------------------------
# Submission discipline on a loaded link
# ----------------------------------------------------------------------

LC_OPS = (Op.CHUNK, Op.LC_SIG_BATCH, Op.LC_FINALIZE)
GUEST = GuestConfig(delta_seconds=120.0, min_stake_lamports=1)
BATCHING = (32, 2.0)


class RpcTap:
    """The host's RPC edge as one relayer's light-client updates see it.

    Every CHUNK / LC_SIG_BATCH / LC_FINALIZE handed to ``host.submit``
    (packet and handshake chunks travel as bundles) is recorded per
    staging buffer, i.e. per update, as ``[op, submitted at, receipt
    seen at, transaction]``.  ``refuse`` and ``drop`` script the two
    chaos edges for chosen transactions: a refusal raises before
    anything is recorded, a drop reports the host's own in-transit
    receipt and nothing reaches the mempool.
    """

    def __init__(self, dep):
        self.sim = dep.sim
        self.host = dep.host
        self.updates = defaultdict(list)
        self.in_flight = self.widest = 0
        self.refuse = self.drop = lambda op, buffer_id: False
        self.refused = 0
        self._submit = dep.host.submit
        dep.host.submit = self.submit

    def submit(self, transaction, on_result=None):
        data = transaction.instructions[0].data
        if data[0] not in LC_OPS:
            return self._submit(transaction, on_result=on_result)
        op, buffer_id = Op(data[0]), Reader(data[1:]).read_varint()
        if self.refuse(op, buffer_id):
            self.refused += 1
            raise HostUnavailableError("scripted blackout")
        row = [op, self.sim.now, None, transaction]

        def seen(receipt):
            row[2] = self.sim.now
            self.in_flight -= 1
            on_result(receipt)

        if self.drop(op, buffer_id):
            self.sim.schedule(0.8, self.host._report_dropped, transaction, seen)
        else:
            self._submit(transaction, on_result=seen)
        self.updates[buffer_id].append(row)
        self.in_flight += 1
        self.widest = max(self.widest, self.in_flight)

    def staging(self, buffer_id):
        return [row for row in self.updates[buffer_id]
                if row[0] is not Op.LC_FINALIZE]

    def finalizes(self, buffer_id):
        return [row for row in self.updates[buffer_id]
                if row[0] is Op.LC_FINALIZE]

    def wave_end(self, buffer_id):
        """When the update's last receipt was seen: its end."""
        return max(seen for _, _, seen, _ in self.updates[buffer_id])


class LoadedLink:
    """20 pps of counterparty sends over one link for ``seconds``, every
    ``cover()`` of the guest's client and every send the relayer read
    off a counterparty block recorded."""

    def __init__(self, dep, channels, seconds=90.0):
        self.dep = dep
        self.cp_records = CounterpartyRecorder(dep.counterparty).records
        strategy = dep.relayer.a.updates
        self.tap = RpcTap(dep)
        self.updates_before = len(dep.relayer.metrics.lc_updates)
        self.waits_before = len(
            dep.trace_report().histogram("relay.lc_update.wait"))
        #: One record per ``cover()`` call, in call order, and the
        #: queued ones again in the order an update released them.
        self.covers, self.released = [], []
        #: (packet, height committed at, read at, its block's cover
        #: record), in read order.
        self.polled = []
        cover, relay_block = strategy.cover, dep.relayer._relay_block
        end = dep.relayer.b

        def recording_cover(height, then, *failed):
            record = {"height": height, "at": dep.sim.now, "queued": False,
                      "released_at": None}
            self.covers.append(record)

            def release(covered):
                record["released_at"] = dep.sim.now
                record["covered"] = covered
                if record["queued"]:
                    self.released.append(record)
                then(covered)

            cover(height, release, *failed)
            record["queued"] = record["released_at"] is None

        def recording_relay_block(src, height):
            covered = len(self.covers)
            owed = relay_block(src, height)
            if src is end and self.covers[covered:]:
                [record] = self.covers[covered:]
                self.polled += [(write.packet, height, dep.sim.now, record)
                                for write in end.ibc.writes[height]
                                if write.kind == "send" and end.sends(write.packet)]
            return owed

        strategy.cover = recording_cover
        dep.relayer._relay_block = recording_relay_block
        self.engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=20.0, duration=seconds, drain_seconds=60.0))
        self.engine.start()
        dep.sim.run_until(self.engine.end_time)

    @property
    def results(self):
        """This run's updates, paired with their RPC-edge records (one
        staging buffer per update, in submission order)."""
        results = self.dep.relayer.metrics.lc_updates[self.updates_before:]
        assert len(results) == len(self.tap.updates)
        return list(zip(results, self.tap.updates))

    def starts(self):
        return [self.tap.updates[buffer_id][0][1] for _, buffer_id in self.results]


@pytest.fixture(scope="module", params=[0, 1, 2])
def loaded(request):
    dep, channels = build_linked_deployment(request.param, GUEST, BATCHING, 1)
    link = LoadedLink(dep, channels)
    assert link.engine.delivered == link.engine.sent == 1_800
    assert len(link.results) >= 8
    return link


def test_default_plan_puts_the_whole_staging_wave_in_flight(loaded):
    for result, buffer_id in loaded.results:
        staging = loaded.tap.staging(buffer_id)
        assert len(staging) == result.transaction_count - 1
        assert len({submitted for _, submitted, _, _ in staging}) == 1
        # LC_FINALIZE is one more transaction of the wave: out at the
        # same instant as the rest.
        (finalize,) = loaded.tap.finalizes(buffer_id)
        assert finalize[1] == staging[0][1]
        assert result.peak_in_flight == result.transaction_count
    # Its receipt is not what ends the update (the contract adopts in
    # whichever transaction lands last): staging receipts come in later.
    assert any(loaded.tap.finalizes(buffer_id)[0][2] < loaded.tap.wave_end(buffer_id)
               for _, buffer_id in loaded.results)
    peaks = loaded.dep.trace_report().histogram("relay.lc_update.peak_in_flight")
    assert peaks[loaded.updates_before:] == [
        result.peak_in_flight for result, _ in loaded.results]


def test_update_starts_are_spaced_by_the_transaction_budget(loaded):
    results = [result for result, _ in loaded.results]
    starts = loaded.starts()
    for result, start, following in zip(results, starts, starts[1:]):
        owed = result.transaction_count / LC_UPDATE_TXS_PER_SECOND
        assert following - start >= owed - 1e-9
    # At 20 pps a waiter is always queued, so the budget is what paces
    # the link: spent in full, never exceeded.
    spent = sum(result.transaction_count for result in results[:-1])
    rate = spent / (starts[-1] - starts[0])
    assert 0.9 * LC_UPDATE_TXS_PER_SECOND < rate <= LC_UPDATE_TXS_PER_SECOND + 1e-9
    # One update at a time: the next starts after the last one ended.
    ends = [loaded.tap.wave_end(buffer_id) for _, buffer_id in loaded.results]
    assert all(end <= start for end, start in zip(ends, starts[1:]))


def test_a_packet_polled_during_the_hold_down_rides_the_next_update(loaded):
    """Whatever is queued when an update starts is released by it: the
    update targets the counterparty's tip, which every send read off
    the queue is at or below.  Nothing waits for the update after."""
    starts = loaded.starts()
    finishes = [loaded.tap.wave_end(buffer_id)
                for _, buffer_id in loaded.results]
    assert all(result.success for result, _ in loaded.results)
    held = 0
    for *_, record in loaded.polled:
        assert record["queued"]
        # The first update to start once the waiter is queued (not one
        # whose hold-down ran out at the very instant of the waiter's
        # block, ahead of it: that one targets the block before)...
        index = next(i for i, start in enumerate(starts)
                     if start >= record["at"]
                     and loaded.results[i][0].height >= record["height"])
        # ...is the one whose end released it.
        assert record["released_at"] == finishes[index]
        assert record["covered"] == loaded.results[index][0].height >= record["height"]
        held += index > 0 and finishes[index - 1] < record["at"] < starts[index]
    assert held > 100  # the hold-down case is the common one here


def test_wait_stage_reconciles_poll_to_delivery(loaded):
    """Per packet: discovery + ``relay.lc_update.wait`` + delivery is
    the relayer's commit -> receive time (docs/OBSERVABILITY.md), and
    discovery is zero: the relayer reads a send at its block's instant."""
    dep = loaded.dep
    report = dep.trace_report()
    waits = report.histogram("relay.lc_update.wait")[loaded.waits_before:]
    assert len(waits) == len(loaded.released)
    for record, wait in zip(loaded.released, waits):
        record["wait"] = wait
        assert wait == record["released_at"] - record["at"]
    deliveries = {span.key: span
                  for span in report.spans_named("packet.deliver_to_guest")}
    assert len(loaded.polled) == 1_800
    assert {id(record) for *_, record in loaded.polled} == {
        id(record) for record in loaded.covers}   # one cover per block
    for packet, height, polled_at, record in loaded.polled:
        committed_at = loaded.cp_records[height].header.time
        span = deliveries[packet.sequence]
        assert record["at"] == polled_at and span.start == record["released_at"]
        stages = (polled_at - committed_at) + record["wait"] + span.duration
        assert abs(stages - (span.end - committed_at)) < 1e-9
        assert polled_at == committed_at     # a subscription, not a poll


def test_paper_plan_keeps_three_in_flight():
    dep = Deployment(DeploymentConfig(
        seed=0, guest=GUEST, profiles=simple_profiles(4), tracing=True,
        relayer=RelayerConfig(batch_max_packets=32, batch_flush_seconds=2.0,
                              lc_update_plan="paper")))
    link = LoadedLink(dep, [dep.establish_link()])
    assert link.engine.delivered == link.engine.sent
    assert link.tap.widest == LC_UPDATE_PLANS["paper"].window == 3
    for result, buffer_id in link.results:
        assert result.peak_in_flight == 3
        staging = link.tap.staging(buffer_id)
        assert len({row[1] for row in staging}) > 3
        # LC_FINALIZE still goes out when the last staging receipt is
        # back, lands last and adopts there: Fig. 4's sequence.
        (finalize,) = link.tap.finalizes(buffer_id)
        assert finalize[1] == max(seen for _, _, seen, _ in staging)
        assert finalize[2] == link.tap.wave_end(buffer_id)
    # ~36 transactions three at a time take longer than they cost, so
    # the budget is idle: each update starts as the last one ends.
    assert mean(result.transaction_count for result, _ in link.results) > 30


# ----------------------------------------------------------------------
# Faults in the middle of a wave
# ----------------------------------------------------------------------

def idle_link(seed):
    """An established, idle link with its RPC edge tapped, and one
    counterparty send whose update the tests below disturb."""
    dep = Deployment(DeploymentConfig(
        seed=seed, guest=GUEST, profiles=simple_profiles(4), tracing=True))
    guest_channel, cp_channel = dep.establish_link()
    dep.run_for(30.0)
    dep.counterparty.bank.mint("carol", "PICA", 1_000)

    def send():
        data = dep.counterparty.transfer.make_payload(
            cp_channel, "PICA", 50, "carol", "dave")
        dep.counterparty.ibc.send_packet(
            dep.counterparty.transfer_port, cp_channel, data, 0.0)

    dep.counterparty.submit(send)
    voucher = dep.contract.transfer.voucher_denom(guest_channel, "PICA")
    return dep, RpcTap(dep), lambda: dep.contract.bank.balance("dave", voucher)


@pytest.mark.parametrize("k", [0, 5, 9])
def test_blackout_at_the_kth_submission_resumes_at_k(k):
    dep, tap, delivered = idle_link(31)
    blackout = {}

    def refuse(op, buffer_id):
        """Down from the k-th submission of the wave for 5 s: long
        enough that receipts of the first k land meanwhile."""
        if "until" not in blackout and len(tap.updates[buffer_id]) == k:
            blackout["until"] = dep.sim.now + 5.0
        return dep.sim.now < blackout.get("until", 0.0)

    tap.refuse = refuse
    retry_timers = []
    schedule = dep.sim.schedule

    def watching_schedule(delay, callback, *args):
        if getattr(callback, "__name__", "") == "pump":
            retry_timers.append(dep.sim.now)
        return schedule(delay, callback, *args)

    dep.sim.schedule = watching_schedule
    dep.run_for(120.0)

    (result,) = dep.relayer.metrics.lc_updates[-1:]
    (buffer_id,) = tap.updates
    rows = tap.updates[buffer_id]
    assert result.success and delivered() == 50
    # Nothing twice, nothing skipped, and the wave split exactly at k.
    assert len({id(row[3]) for row in rows}) == len(rows) == result.transaction_count
    wave = sorted({row[1] for row in rows})
    assert [sum(row[1] == at for row in rows) for at in wave] \
        == ([k, result.transaction_count - k] if k else [result.transaction_count])
    assert rows[-1][0] is Op.LC_FINALIZE
    assert wave[-1] >= blackout["until"]
    # Every refusal is counted; one retry timer at a time carries them
    # (a receipt landing in the blackout finds the RPC down, is refused
    # once and arms none).
    assert dep.trace_report().counter("chaos.lc_update.stalled") == tap.refused
    down_at = blackout["until"] - 5.0
    assert retry_timers == [down_at, down_at + 2.0, down_at + 4.0]
    landed_meanwhile = sum(row[2] < blackout["until"] for row in rows[:k])
    assert tap.refused == len(retry_timers) + landed_meanwhile


def test_dropped_staging_transaction_fails_the_update_and_is_charged():
    dep, tap, delivered = idle_link(32)
    dropped = []

    def drop(op, buffer_id):
        """The sixth staging transaction of the first update is lost in
        transit."""
        if not dropped and len(tap.updates[buffer_id]) == 5:
            dropped.append(buffer_id)
        return dropped == [buffer_id] and len(tap.updates[buffer_id]) == 5

    tap.drop = drop
    before = len(dep.relayer.metrics.lc_updates)
    dep.run_for(180.0)

    failed, retried = dep.relayer.metrics.lc_updates[before:]
    first, second = tap.updates
    assert not failed.success and retried.success
    # The failed attempt staged everything else, asked to finalize
    # (accepted, and one batch short for good: nothing adopts it) and
    # is on the books in full.
    assert all(row[2] is not None for row in tap.updates[first])
    assert len(tap.updates[first]) == failed.transaction_count
    assert dep.relayer.ledger.transactions["lc-update"] >= (
        failed.transaction_count + retried.transaction_count)
    # The retry is a new update, spaced like any other.
    gap = tap.updates[second][0][1] - tap.updates[first][0][1]
    assert gap >= failed.transaction_count / LC_UPDATE_TXS_PER_SECOND - 1e-9
    assert gap < failed.transaction_count / LC_UPDATE_TXS_PER_SECOND + 6.0
    assert delivered() == 50
    assert dep.relayer.metrics.packets_relayed_to_guest == 1


def test_crash_mid_wave_is_dropped_by_the_incarnation_guard():
    dep, tap, delivered = idle_link(33)
    strategy = dep.relayer.a.updates
    before = len(dep.relayer.metrics.lc_updates)
    while not tap.updates:
        dep.sim.step()
    (first,) = tap.updates            # the wave is out, no receipt yet
    assert tap.in_flight == len(tap.updates[first]) and strategy._lc_busy
    budget = strategy._lc_next_start

    dep.relayer.crash()
    dep.run_for(20.0)                 # the dead wave lands and finalizes
    assert len(tap.finalizes(first)) == 1
    # Booked — the payer paid for it — but continued by no one.
    (landed,) = dep.relayer.metrics.lc_updates[before:]
    assert landed.transaction_count == len(tap.updates[first])
    assert dep.trace_report().counter("relay.lc_updates.stale_dropped") == 1
    assert not strategy._lc_busy and strategy._lc_next_start == budget

    dep.relayer.restart()
    dep.run_for(180.0)
    assert delivered() == 50
    assert dep.relayer.metrics.packets_relayed_to_guest == 1


# ----------------------------------------------------------------------
# Orphaned staging buffers
# ----------------------------------------------------------------------

def test_a_wave_that_never_finalizes_is_swept_past_the_horizon():
    """A staged update whose LC_FINALIZE never lands (lost in transit
    here; a relayer dying mid-wave, or a bundle whose exec was refused,
    leave the same thing behind) stays in the contract's buffers and
    counts against the 10 MiB account — until the first buffer opened
    more than ``STAGING_BUFFER_TTL_SECONDS`` after it sweeps it out.
    The crash test above leaves nothing: the wave of a crashed relayer
    still finalizes, its callbacks alone are dropped."""
    from repro.guest.contract import STAGING_BUFFER_TTL_SECONDS
    dep, tap, delivered = idle_link(34)
    buffers = dep.contract._buffers
    payer = dep.relayer.a.api.payer
    tap.drop = lambda op, buffer_id: (
        op is Op.LC_FINALIZE and list(tap.updates) == [buffer_id])
    before = len(dep.relayer.metrics.lc_updates)
    dep.run_for(180.0)

    failed, retried = dep.relayer.metrics.lc_updates[before:]
    orphan, second = tap.updates
    assert not failed.success and retried.success and delivered() == 50
    assert list(buffers) == [(payer, orphan)]
    orphaned_at = buffers[(payer, orphan)].opened_at
    staged = buffers[(payer, orphan)].byte_size()
    assert staged > 0 and buffers[(payer, orphan)].is_complete()
    # What ``_check_state_budget`` adds to the store's bytes.
    counted = lambda: sum(buffer.byte_size() for buffer in buffers.values())
    assert counted() == staged

    def another_update():
        known = dep.contract.counterparty_client.latest_height()
        covered = []
        dep.relayer.a.updates.cover(known + 1, covered.append)
        dep.run_for(120.0)
        assert covered and covered[0] > known
        return list(tap.updates)[-1]

    # A buffer opened inside the horizon sweeps nothing.
    third = another_update()
    assert dep.sim.now - orphaned_at < STAGING_BUFFER_TTL_SECONDS
    assert third not in (orphan, second)
    assert list(buffers) == [(payer, orphan)] and counted() == staged

    # The next one past it does, and is itself consumed as usual.
    dep.run_for(STAGING_BUFFER_TTL_SECONDS)
    another_update()
    assert not buffers and counted() == 0


def test_a_young_buffer_survives_the_sweep_and_an_old_one_does_not():
    """The sweep at the contract's edge: opened by a CHUNK of another
    payer, it drops exactly the buffers older than the horizon — and a
    buffer that is then executed is not there to be swept twice."""
    from repro.guest import instructions as ins
    from repro.guest.contract import STAGING_BUFFER_TTL_SECONDS
    from tests.test_guest_contract import run_tx
    dep = Deployment(DeploymentConfig(
        seed=35, guest=GUEST, profiles=simple_profiles(4)))
    buffers = dep.contract._buffers

    assert run_tx(dep, ins.chunk(1, 0, 2, b"old"), wait=5.0).success
    dep.run_for(STAGING_BUFFER_TTL_SECONDS - 60.0)
    assert run_tx(dep, ins.chunk(2, 0, 2, b"young"), wait=5.0).success
    assert sorted(key[1] for key in buffers) == [1, 2]
    # A second CHUNK into an open buffer opens nothing, sweeps nothing.
    dep.run_for(120.0)
    assert run_tx(dep, ins.chunk(2, 1, 2, b"er"), wait=5.0).success
    assert sorted(key[1] for key in buffers) == [1, 2]
    assert run_tx(dep, ins.chunk(3, 0, 1, b"new"), wait=5.0).success
    assert sorted(key[1] for key in buffers) == [2, 3]
    assert buffers[(dep.user, 2)].assembled() == b"younger"
