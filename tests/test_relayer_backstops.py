"""No backstops: every relayer wait has its own wake-up — a differential.

The relayer used to re-check its queues on a 45 s watchdog and kick
both ends once more at the end of ``restart``; a chunked update waiting
for a counterparty height past the tip re-scheduled itself every block
period, once per waiter.  All three are gone: each wait now ends on the
one event that can end it (docs/CHAOS.md, "Wake-ups, no backstop").
The watchdog and the restart kicks survive here alone, in
``WatchdogRelayer``, the reference.  Over chaos plans — relayer crash
and restart, RPC blackout, host slot stall, congested updates (a fee
spike, dropped transactions) — both must give identical store
roots, packet counters and ``RelayerMetrics``, their event counts apart
by exactly the watchdog's ticks, none of which (and none of whose
restart kicks) changed anything.  After every event of the relayer
without a watchdog, no queue is left without its wake-up:

(a) bundles queued => the pump retry armed;
(b) light-client waiters queued and no update running => the hold-down
    armed, or the highest height they need above the counterparty's
    tip (that chain's next block kicks them,
    ``Relayer._on_counterparty_block``).

The watchdog could never un-wedge an update whose receipt was lost
either: ``kick`` returns while an update runs.
"""

from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.deployment
from repro import Deployment, DeploymentConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.checkpoint.snapshot import world_roots
from repro.errors import HostUnavailableError
from repro.guest.config import GuestConfig
from repro.relayer.relayer import Relayer, RelayerConfig
from repro.relayer.updates import ChunkedTendermint
from repro.validators.profiles import simple_profiles

WATCHDOG_SECONDS = 45.0
SENDS = 8
SEND_GAP, DRAIN = 9.0, 600.0


class WatchdogRelayer(Relayer):
    """The relayer as it was: a self-rescheduling 45 s timer kicks each
    end's client updates and pumps a bundle queue with no retry armed,
    and ``restart`` kicks both ends once more.  It counts its ticks and
    every tick or restart kick that changed something.  A kick falling
    at the very instant a hold-down expires is left to the hold-down, as
    the relayer leaves it: there the old relayer's heap order let the
    tick start the update first, before a counterparty block produced at
    the same instant — a tie-break, not a rescue."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ticks = self.acted = 0
        self.sim.schedule(WATCHDOG_SECONDS, self._watchdog)

    def restart(self) -> None:
        super().restart()
        self._kick_ends()

    def _watchdog(self) -> None:
        self.ticks += 1
        self.sim.schedule(WATCHDOG_SECONDS, self._watchdog)
        if self.paused:
            return
        self._kick_ends()
        if self._bundle_queue and self._pump_retry_handle is None:
            self.acted += 1
            self._pump_bundles()

    def _kick_ends(self) -> None:
        for end in (self.a, self.b):
            updates = end.updates
            if (getattr(updates, "_lc_holddown_handle", None) is not None
                    and updates._lc_next_start <= self.sim.now):
                continue
            before = self._state(updates)
            updates.kick()
            self.acted += self._state(updates) != before

    def _state(self, updates) -> tuple:
        return (self.sim._sequence, getattr(updates, "_lc_busy", None),
                getattr(updates, "_lc_holddown_handle", None))


def assert_every_wait_has_its_wake_up(relayer: Relayer) -> None:
    handle = relayer._pump_retry_handle
    assert not relayer._bundle_queue or (
        handle is not None and not handle.cancelled), "(a) bundles stranded"
    for end in (relayer.a, relayer.b):
        updates = end.updates
        if not isinstance(updates, ChunkedTendermint):
            continue
        if updates._lc_queue and not updates._lc_busy:
            holddown = updates._lc_holddown_handle
            needed = max(height for height, _, _ in updates._lc_queue)
            assert ((holddown is not None and not holddown.cancelled)
                    or needed > updates.source.chain.height), (
                "(b) light-client waiters stranded")


class Run:
    """One default-shaped link under ``plan``, ``SENDS`` transfers each
    way (every third counterparty send with a 20 s deadline), drained.
    After the send numbered ``ahead[0]``, if given, the test covers a
    counterparty height ``ahead[1]`` blocks past the tip itself."""

    def __init__(self, relayer_class, seed: int, plan: FaultPlan,
                 lc_plan: str, batch: int, ahead=None) -> None:
        with patch.object(repro.deployment, "Relayer", relayer_class):
            dep = self.dep = Deployment(DeploymentConfig(
                seed=seed,
                guest=GuestConfig(delta_seconds=90.0, min_stake_lamports=1),
                relayer=RelayerConfig(batch_max_packets=batch,
                                      lc_update_plan=lc_plan),
                profiles=simple_profiles(4)))
        relayer, sim = dep.relayer, dep.sim
        assert type(relayer) is relayer_class
        #: Checked on the relayer alone: a tick of the twin would mask
        #: a stranded wait.
        self.checked = relayer_class is Relayer
        guest_channel, cp_channel = dep.establish_link()
        chain = dep.counterparty
        dep.contract.bank.mint("alice", "GUEST", 10_000)
        chain.bank.mint("carol", "PICA", 10_000)
        ChaosInjector(dep, plan).arm()
        #: Guest sends the RPC refused (a blackout), in order.
        self.refused = []
        #: (when, height) of each run of the test's own cover.
        self.covered = []
        for index in range(SENDS):
            payload = dep.contract.transfer.make_payload(
                guest_channel, "GUEST", 5, "alice", "bob")
            try:
                dep.user_api.send_packet("transfer", str(guest_channel), payload)
            except HostUnavailableError:
                self.refused.append(index)
            deadline = sim.now + 20.0 if index % 3 == 0 else 0.0
            chain.submit(lambda deadline=deadline: chain.ibc.send_packet(
                chain.transfer_port, cp_channel, chain.transfer.make_payload(
                    cp_channel, "PICA", 5, "carol", "dave"), deadline))
            if ahead is not None and index == ahead[0]:
                relayer.a.updates.cover(
                    chain.height + ahead[1],
                    lambda height: self.covered.append((sim.now, height)))
            self.advance(SEND_GAP)
        self.advance(DRAIN + plan.horizon())

    def advance(self, seconds: float) -> None:
        sim = self.dep.sim
        until = sim.now + seconds
        while sim._dispatch_next(until):
            if self.checked:
                assert_every_wait_has_its_wake_up(self.dep.relayer)
        sim.run_until(until)

    def outcome(self) -> tuple:
        dep = self.dep
        return (world_roots(dep), dep.contract.ibc.counters,
                dep.counterparty.ibc.counters, dep.relayer.metrics,
                self.refused, self.covered, dep.sim.now)


FAULT_KINDS = ("relayer_crash", "host_blackout", "host_slot_stall",
               "host_fee_spike", "host_tx_drop")


@st.composite
def plans(draw) -> FaultPlan:
    plan = FaultPlan()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        extra = {}
        if kind == "host_tx_drop":
            extra["probability"] = draw(st.sampled_from((0.2, 0.5)))
        elif kind == "host_fee_spike":
            extra["magnitude"] = 1.0
        plan.add(kind, at=float(draw(st.integers(0, 90))),
                 duration=float(draw(st.integers(5, 60))), **extra)
    return plan


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), plan=plans(),
       lc_plan=st.sampled_from(("quorum", "paper")),
       batch=st.sampled_from((1, 8)),
       ahead=st.none() | st.tuples(st.integers(0, SENDS - 1),
                                   st.integers(1, 3)))
# A cover past the tip queued while the relayer is down: its block
# arrives during the outage and must start the update there and then.
@example(seed=3, plan=FaultPlan().add("relayer_crash", at=5.0, duration=40.0),
         lc_plan="quorum", batch=1, ahead=(1, 3))
def test_no_watchdog_tick_changes_anything(seed, plan, lc_plan, batch, ahead):
    watched = Run(WatchdogRelayer, seed, plan, lc_plan, batch, ahead)
    bare = Run(Relayer, seed, plan, lc_plan, batch, ahead)
    assert bare.outcome() == watched.outcome()
    twin = watched.dep.relayer
    assert twin.ticks > 0 and twin.acted == 0
    assert (watched.dep.sim.dispatched_events()
            - bare.dep.sim.dispatched_events()) == twin.ticks
