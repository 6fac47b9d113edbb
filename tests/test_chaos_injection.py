"""The deterministic chaos subsystem (docs/CHAOS.md).

Covers the fault-plan DSL, the gossip fault/isolation edges, each host
fault edge through a live deployment, the Byzantine actor faults end to
end (equivocation -> Fisherman -> SLASH, forged signatures rejected),
the full storm smoke with its fault-free differential twin, and the
checkpoint compatibility of a mid-storm world.

Note: ``tests/test_chaos.py`` is the older randomized packet-storm
invariant suite; this file tests the *injected*-fault subsystem.
"""

import json

import pytest

from repro import Deployment, DeploymentConfig
from repro.chaos import FAULT_KINDS, ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.injector import GossipVerdict
from repro.chaos.plan import FaultPlanError
from repro.checkpoint import restore_world, snapshot_world
from repro.checkpoint.snapshot import world_roots
from repro.errors import HostUnavailableError
from repro.experiments.chaos import (
    check_chaos_smoke,
    ledger_fingerprint,
    run_chaos_smoke,
    smoke_config,
    storm_plan,
)
from repro.guest.config import GuestConfig
from repro.host import Address, BaseFee, Instruction, Transaction
from repro.sim import Simulation
from repro.sim.gossip import GossipNetwork
from repro.validators.profiles import simple_profiles


def make_dep(seed, validators=4, **kw):
    kw.setdefault("with_fisherman", True)
    kw.setdefault("tracing", True)
    return Deployment(DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=90.0, min_stake_lamports=1),
        profiles=simple_profiles(validators),
        **kw,
    ))


def null_tx():
    """A transaction that never needs to execute (chaos edges fire at
    submission time, before fees or programs are consulted)."""
    return Transaction(
        payer=Address.derive("chaos-test-payer"),
        instructions=(Instruction(Address.derive("no-program"), (), b"x"),),
        fee_strategy=BaseFee(),
        compute_budget=10_000,
    )


# ----------------------------------------------------------------------
# The fault-plan DSL
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan().add("host_meltdown", at=1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(FaultPlanError, match="negative start"):
            FaultPlan().add("host_blackout", at=-1.0, duration=5.0)
        with pytest.raises(FaultPlanError, match="negative duration"):
            FaultPlan().add("host_blackout", at=1.0, duration=-5.0)

    def test_windowed_kind_needs_duration(self):
        with pytest.raises(FaultPlanError, match="needs duration"):
            FaultPlan().add("host_blackout", at=1.0)

    def test_targeted_kind_needs_target(self):
        with pytest.raises(FaultPlanError, match="needs a target"):
            FaultPlan().add("validator_crash", at=1.0, duration=5.0)

    def test_probability_bounds(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultPlan().add("host_tx_drop", at=1.0, duration=5.0,
                            probability=0.0)
        with pytest.raises(FaultPlanError, match="probability"):
            FaultPlan().add("gossip_drop", at=1.0, duration=5.0,
                            probability=1.5)

    def test_target_index_parses_or_raises(self):
        spec = FaultSpec("validator_crash", at=0.0, duration=1.0, target="3")
        assert spec.target_index() == 3
        bad = FaultSpec("gossip_partition", at=0.0, duration=1.0,
                        target="fisherman")
        with pytest.raises(FaultPlanError, match="not an index"):
            bad.target_index()

    def test_horizon_and_of_kind(self):
        plan = (FaultPlan()
                .add("host_blackout", at=10.0, duration=20.0)
                .add("relayer_crash", at=50.0, duration=5.0)
                .add("validator_equivocate", at=90.0, target="1"))
        assert plan.horizon() == 90.0
        assert len(plan.of_kind("host_blackout")) == 1
        assert plan.of_kind("cranker_crash") == []

    def test_json_roundtrip_is_exact_and_stable(self):
        plan = storm_plan(smoke_config())
        text = plan.to_json()
        back = FaultPlan.from_json(text)
        assert back == plan
        assert back.to_json() == text  # stable (sorted keys)

    def test_every_kind_has_a_shape(self):
        assert len(FAULT_KINDS) == 14
        for kind, shape in FAULT_KINDS.items():
            assert len(shape) == 4, kind

    def test_storm_plan_covers_every_kind(self):
        plan = storm_plan(smoke_config())
        assert {spec.kind for spec in plan.specs} == set(FAULT_KINDS)

    def test_arming_twice_is_an_error(self):
        dep = make_dep(301)
        plan = FaultPlan().add("host_blackout", at=1.0, duration=2.0)
        injector = ChaosInjector(dep, plan).arm()
        with pytest.raises(FaultPlanError, match="already armed"):
            injector.arm()


# ----------------------------------------------------------------------
# Gossip: isolation, unsubscribe, chaos verdicts
# ----------------------------------------------------------------------


class _Policy:
    """Stub chaos policy returning a fixed verdict per delivery."""

    def __init__(self, verdict_for):
        self.verdict_for = verdict_for

    def on_delivery(self, topic, label):
        return self.verdict_for(topic, label)


class TestGossipFaults:
    def setup_method(self):
        self.sim = Simulation(seed=11)
        self.net = GossipNetwork(self.sim, mean_delay=0.5)

    def test_raising_subscriber_is_isolated(self):
        got = []

        def bad(message):
            raise RuntimeError("observer bug")

        self.net.subscribe("topic", bad, label="bad")
        self.net.subscribe("topic", got.append, label="good")
        self.net.publish("topic", "hello")
        self.sim.run_until(30.0)
        assert got == ["hello"]
        assert self.net.subscriber_errors == {"bad": 1}

    def test_unsubscribe_suppresses_scheduled_deliveries(self):
        got = []
        sub = self.net.subscribe("topic", got.append, label="gone")
        self.net.publish("topic", "in-flight")   # delivery is delayed
        self.net.unsubscribe(sub)                # ...and the actor crashes
        self.sim.run_until(30.0)
        self.net.publish("topic", "later")
        self.sim.run_until(60.0)
        assert got == []

    def test_drop_verdict_loses_the_delivery(self):
        got = []
        self.net.subscribe("topic", got.append)
        self.net.chaos = _Policy(lambda t, l: GossipVerdict(drop=True))
        self.net.publish("topic", "lost")
        self.sim.run_until(30.0)
        assert got == []

    def test_duplicate_verdict_multiplies_the_delivery(self):
        got = []
        self.net.subscribe("topic", got.append)
        self.net.chaos = _Policy(lambda t, l: GossipVerdict(duplicates=2))
        self.net.publish("topic", "echo")
        self.sim.run_until(30.0)
        assert got == ["echo"] * 3  # the original plus two copies

    def test_partition_matches_on_label(self):
        fisher, other = [], []
        self.net.subscribe("topic", fisher.append, label="fisherman")
        self.net.subscribe("topic", other.append, label="relayer")
        self.net.chaos = _Policy(
            lambda t, label: GossipVerdict(drop="fisherman" in label))
        self.net.publish("topic", "claim")
        self.sim.run_until(30.0)
        assert fisher == [] and other == ["claim"]

    def test_delay_verdict_defers_but_delivers(self):
        got = []
        self.net.subscribe("topic", lambda m: got.append(self.sim.now))
        self.net.chaos = _Policy(lambda t, l: GossipVerdict(extra_delay=20.0))
        self.net.publish("topic", "slow")
        self.sim.run_until(10.0)
        assert got == []
        self.sim.run_until(60.0)
        assert len(got) == 1 and got[0] >= 20.0

    def test_an_idle_policy_moves_no_delivery(self):
        """One nominal delay is drawn per subscriber, in subscriber
        order, whether or not a policy is attached: a policy that never
        drops, delays or duplicates leaves every delivery where the
        policy-free network puts it."""
        def deliveries(chaos):
            sim = Simulation(seed=11)
            net = GossipNetwork(sim, mean_delay=0.5)
            net.chaos = chaos
            got = []
            for label in ("a", "b", "c"):
                net.subscribe("topic", lambda message, label=label: got.append(
                    (sim.now, label, message)), label=label)
            net.publish("topic", "first")
            sim.run_until(0.2)
            net.publish("topic", "second")
            sim.run()
            assert len(got) == 6
            return got, sim.dispatched_events()

        idle = _Policy(lambda topic, label: GossipVerdict())
        assert deliveries(idle) == deliveries(None)


# ----------------------------------------------------------------------
# Host fault edges (through a live deployment)
# ----------------------------------------------------------------------


class TestHostFaultEdges:
    def test_blackout_refuses_synchronously(self):
        dep = make_dep(311)
        plan = FaultPlan().add("host_blackout", at=0.0, duration=50.0)
        ChaosInjector(dep, plan).arm()
        with pytest.raises(HostUnavailableError):
            dep.host.submit(null_tx())
        with pytest.raises(HostUnavailableError):
            dep.host.submit_bundle([null_tx()], tip_lamports=0)
        counters = dep.trace_report().counters
        assert counters.get("chaos.host.rpc_refused", 0) >= 2

    def test_tx_drop_reports_a_failed_receipt(self):
        dep = make_dep(312)
        plan = FaultPlan().add("host_tx_drop", at=0.0, duration=50.0,
                               probability=1.0)
        ChaosInjector(dep, plan).arm()
        receipts = []
        dep.host.submit(null_tx(), on_result=receipts.append)
        dep.run_for(30.0)
        assert len(receipts) == 1
        assert not receipts[0].success
        assert "dropped in transit" in receipts[0].error
        assert dep.trace_report().counters.get("chaos.host.tx_dropped") == 1

    def test_fee_spike_pins_congestion(self):
        dep = make_dep(313)
        t0 = dep.sim.now
        plan = FaultPlan().add("host_fee_spike", at=10.0, duration=30.0,
                               magnitude=0.9)
        ChaosInjector(dep, plan).arm()
        assert dep.host.congestion_at(t0 + 20.0) == 0.9
        assert dep.host.congestion_at(t0 + 45.0) != 0.9  # window over

    def test_slot_stall_halts_block_production(self):
        dep = make_dep(314)
        dep.run_for(5.0)
        plan = FaultPlan().add("host_slot_stall", at=0.0, duration=10.0)
        ChaosInjector(dep, plan).arm()
        slot_before = dep.host.slot
        dep.run_for(9.0)
        assert dep.host.slot == slot_before        # leader offline
        dep.run_for(30.0)
        assert dep.host.slot > slot_before         # production resumed
        assert dep.trace_report().counters.get("chaos.host.slots_stalled", 0) > 0


# ----------------------------------------------------------------------
# Byzantine actor faults, end to end
# ----------------------------------------------------------------------


class TestActorFaults:
    def test_equivocation_is_prosecuted_and_slashed(self):
        dep = make_dep(321)
        dep.establish_link()
        offender = dep.validator_keypair(1).public_key
        stake_before = dep.contract.staking.stake_of(offender)
        assert stake_before > 0

        plan = FaultPlan().add("validator_equivocate", at=5.0, duration=10.0,
                               target="1", magnitude=3)
        ChaosInjector(dep, plan).arm()
        dep.run_for(240.0)

        assert dep.contract.staking.stake_of(offender) == 0
        assert any(report.accepted for report in dep.fisherman.reports)
        counters = dep.trace_report().counters
        assert counters.get("chaos.equivocations.published") == 3

    def test_bad_signatures_are_rejected_not_slashed(self):
        dep = make_dep(322)
        dep.establish_link()
        target = dep.validator_keypair(1).public_key
        stake_before = dep.contract.staking.stake_of(target)

        plan = FaultPlan().add("validator_bad_signature", at=5.0,
                               duration=5.0, target="1", magnitude=2)
        ChaosInjector(dep, plan).arm()
        dep.run_for(120.0)

        counters = dep.trace_report().counters
        assert counters.get("chaos.bad_signature.rejected", 0) >= 1
        assert "chaos.bad_signature.ACCEPTED" not in counters
        # A forged message is rejected by the contract, not slashable
        # evidence: no honest double-sign exists.
        assert dep.contract.staking.stake_of(target) == stake_before

    def test_validator_crash_stalls_then_recovers(self):
        dep = make_dep(323)
        dep.establish_link()
        plan = FaultPlan()
        for index in range(1, 5):   # every validator: quorum impossible
            plan.add("validator_crash", at=0.0, duration=120.0,
                     target=str(index))
        ChaosInjector(dep, plan).arm()
        dep.contract.bank.mint("alice", "GUEST", 100)
        (_, guest_chan), = dep.relayer.a.channels
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 10, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(100.0)
        stalled = dep.contract.head
        assert not stalled.finalised
        dep.run_for(300.0)
        assert stalled.finalised


# ----------------------------------------------------------------------
# The storm smoke: convergence + determinism + differential twin
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_record():
    return run_chaos_smoke()


class TestStormSmoke:
    def test_smoke_converges(self, smoke_record):
        assert check_chaos_smoke(smoke_record) == []
        assert smoke_record["converged"]

    def test_every_fault_began_and_recovered(self, smoke_record):
        for fault in smoke_record["faults"]:
            assert fault["began"], fault["kind"]
            assert fault["recovered_after"] is not None, fault["kind"]
            assert fault["recovered_after"] >= 0.0, fault["kind"]

    def test_differential_twin_matches(self, smoke_record):
        fps = smoke_record["fingerprints"]
        assert fps["chaos"] == fps["fault_free"]

    def test_record_is_bit_reproducible(self, smoke_record):
        again = run_chaos_smoke()
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(smoke_record, sort_keys=True))

    def test_plan_embedded_in_record_roundtrips(self, smoke_record):
        plan = FaultPlan.from_dict(smoke_record["plan"])
        assert {spec.kind for spec in plan.specs} == set(FAULT_KINDS)


# ----------------------------------------------------------------------
# Checkpoint compatibility of a mid-storm world
# ----------------------------------------------------------------------


class TestChaosCheckpoint:
    def test_mid_storm_snapshot_restores_and_replays(self):
        def build():
            dep = make_dep(331)
            guest_chan, cp_chan = dep.establish_link()
            plan = (FaultPlan(label="ckpt")
                    .add("host_blackout", at=5.0, duration=20.0)
                    .add("validator_equivocate", at=8.0, duration=4.0,
                         target="1", magnitude=2)
                    .add("relayer_crash", at=12.0, duration=10.0))
            ChaosInjector(dep, plan).arm()
            dep.counterparty.bank.mint("carol", "PICA", 1_000)

            def send():
                data = dep.counterparty.transfer.make_payload(
                    cp_chan, "PICA", 50, "carol", "dave")
                dep.counterparty.ibc.send_packet(
                    dep.counterparty.transfer_port, cp_chan, data, 0.0)

            for _ in range(3):
                dep.counterparty.submit(send)
            dep.run_for(10.0)   # mid-storm: blackout on, claims gossiping
            return dep

        dep = build()
        checkpoint = snapshot_world(dep)
        restored, _extras = restore_world(checkpoint)
        assert world_roots(restored) == world_roots(dep)
        assert restored.sim.pending_events() == dep.sim.pending_events()

        # Replay both worlds past the storm: bit-identical trajectories,
        # including the remaining fault firings and recoveries.
        dep.run_for(400.0)
        restored.run_for(400.0)
        assert world_roots(restored) == world_roots(dep)
        assert (restored.trace_report().counters
                == dep.trace_report().counters)
        assert ledger_fingerprint(restored) == ledger_fingerprint(dep)
        offender = dep.validator_keypair(1).public_key
        assert dep.contract.staking.stake_of(offender) == 0
        assert restored.contract.staking.stake_of(offender) == 0
