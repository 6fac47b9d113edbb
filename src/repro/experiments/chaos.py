"""Chaos soak: a seeded fault storm over a batched workload, with a
fault-free twin as the correctness oracle.

The storm combines every fault layer (docs/CHAOS.md) on one deployment:
a host RPC blackout, probabilistic transaction drops, a pinned fee
spike, a slot stall, gossip loss/partition, a crashed validator, an
equivocating validator (prosecuted by the fisherman, slashed, and
rotated out of the quorum), a colluding quorum that double-finalises a
fork (answered by an on-chain AccountabilityProof slashing the whole
double-signing intersection, docs/ACCOUNTABILITY.md), and
relayer/cranker crashes — while an open-loop ICS-20 workload keeps
offering packets at a constant rate.

Convergence is judged three ways:

1. **Invariants** on the chaos run itself: token conservation per denom
   (escrowed == circulating vouchers), exactly-once delivery (every
   committed send received exactly once, nothing outstanding), the
   offender slashed to zero stake and excluded from the current epoch.
2. **Differential check**: a twin deployment with the same seed and the
   same workload but *no* injector must end with a bit-identical token
   ledger (the injector draws from a ``derived_seed`` stream, so the
   twin's randomness is unperturbed — any divergence is a real
   double-spend or lost packet, not noise).
3. **Determinism**: the whole record — including fault recovery
   latencies — is a pure function of (seed, plan), so two soak runs
   with the same config serialise to byte-identical JSON.

``python -m repro.experiments chaos-soak`` writes ``BENCH_chaos.json``;
``chaos-smoke`` is the scaled-down asserting variant CI runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.chaos import ChaosInjector, FaultPlan
from repro.experiments.throughput import build_linked_deployment
from repro.guest.config import GuestConfig
from repro.workload import WorkloadEngine, WorkloadSpec


@dataclass(frozen=True)
class ChaosSoakConfig:
    """One chaos soak measurement."""

    seed: int = 505
    #: Offered load and sending window; the acceptance storm wants
    #: ``offered_pps * duration >= 2000`` packets.
    offered_pps: float = 8.0
    duration: float = 300.0
    #: Post-storm settling time: long enough for retries, breaker
    #: probes, the relayer restart and the epoch rotation to finish.
    drain_seconds: float = 3_600.0
    channels: int = 2
    batch_max_packets: int = 16
    batch_flush_seconds: float = 2.0
    #: Short epochs so the post-slash quorum recomputation happens
    #: inside the run (default mainnet epochs are ~12 h).
    epoch_length_host_blocks: int = 750
    delta_seconds: float = 120.0
    validators: int = 5
    #: Index of the validator the storm makes equivocate.
    byzantine_validator: int = 1
    #: Index of the validator the storm crashes.
    crashed_validator: int = 2


def storm_plan(config: ChaosSoakConfig) -> FaultPlan:
    """The acceptance-criteria fault storm, all layers at once.

    Times are relative to arming (i.e. to workload start).  Windows are
    staggered so each recovery path is exercised both alone and while
    another fault is still active.
    """
    plan = FaultPlan(label="storm")
    # Host layer.
    plan.add("host_blackout", at=40.0, duration=25.0)
    plan.add("host_tx_drop", at=90.0, duration=30.0, probability=0.25)
    plan.add("host_fee_spike", at=130.0, duration=40.0, magnitude=0.95)
    plan.add("host_slot_stall", at=200.0, duration=8.0)
    # Network layer.  The partition silences the fisherman while the
    # equivocation claims first circulate; the repeats outlive it.
    plan.add("gossip_partition", at=95.0, duration=20.0, target="fisherman")
    plan.add("gossip_drop", at=60.0, duration=60.0, probability=0.4)
    plan.add("gossip_delay", at=60.0, duration=60.0,
             probability=0.5, magnitude=3.0)
    plan.add("gossip_duplicate", at=150.0, duration=40.0,
             probability=0.3, magnitude=2)
    # Actor layer.
    plan.add("validator_crash", at=80.0, duration=90.0,
             target=str(config.crashed_validator))
    plan.add("validator_equivocate", at=100.0, duration=40.0,
             target=str(config.byzantine_validator), magnitude=6)
    plan.add("validator_bad_signature", at=120.0, duration=10.0,
             target=str(config.byzantine_validator), magnitude=3)
    # Accountable-safety worst case: a whole quorum double-finalises.
    # The target pins the byzantine validator into the colluding set so
    # the two slashing paths overlap instead of ejecting every
    # candidate between them.
    plan.add("validator_quorum_equivocate", at=110.0, duration=30.0,
             target=str(config.byzantine_validator), magnitude=5)
    plan.add("relayer_crash", at=170.0, duration=20.0)
    plan.add("cranker_crash", at=230.0, duration=15.0)
    return plan.validate()


def _run(config: ChaosSoakConfig, plan: FaultPlan | None = None):
    """One linked deployment (fisherman on, tracing on) under the
    workload, with ``plan`` armed — or, without one, the fault-free
    twin.  Returns ``(dep, channels, engine, injector)``."""
    dep, channels = build_linked_deployment(
        config.seed,
        GuestConfig(
            delta_seconds=config.delta_seconds,
            epoch_length_host_blocks=config.epoch_length_host_blocks,
            min_stake_lamports=1,
        ),
        (config.batch_max_packets, config.batch_flush_seconds),
        config.channels,
        validators=config.validators,
        with_fisherman=True,
    )
    injector = ChaosInjector(dep, plan).arm() if plan is not None else None
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        # Constant arrivals: the send schedule is congestion-independent,
        # so a chaos fee spike cannot perturb the twin comparison.
        mode="open-constant",
        offered_pps=config.offered_pps,
        duration=config.duration,
        drain_seconds=config.drain_seconds,
    ))
    engine.run()
    return dep, channels, engine, injector


def ledger_fingerprint(dep) -> str:
    """Hash of the final token ledger: every non-zero bank balance on
    both chains, sorted.  Deliberately excludes host lamports (fees,
    tips, slashing and validator rewards legitimately differ under
    faults) and IBC store internals (unreturned acks after a relayer
    crash are benign: a success ack is a no-op on the sender's bank).
    """
    entries = []
    for side, bank in (("cp", dep.counterparty.bank),
                       ("guest", dep.contract.bank)):
        for (owner, denom), amount in bank.balances().items():
            if amount:
                entries.append([side, owner, denom, amount])
    entries.sort()
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    return digest


def _conservation(dep, channels, denom: str) -> list[str]:
    """Escrowed-on-cp == circulating-vouchers-on-guest, per channel."""
    failures = []
    for guest_chan, cp_chan in channels:
        escrow = dep.counterparty.transfer.escrow_address(cp_chan)
        voucher = dep.contract.transfer.voucher_denom(guest_chan, denom)
        escrowed = dep.counterparty.bank.balance(escrow, denom)
        circulating = dep.contract.bank.total_supply(voucher)
        if escrowed != circulating:
            failures.append(
                f"conservation broken on {cp_chan}: escrowed {escrowed} "
                f"!= circulating vouchers {circulating}")
    return failures


def run_chaos_soak(config: ChaosSoakConfig = ChaosSoakConfig(),
                   plan: FaultPlan | None = None) -> dict:
    """The full experiment: storm run, twin run, verdicts, JSON record."""
    plan = plan if plan is not None else storm_plan(config)

    dep, channels, engine, injector = _run(config, plan)
    trace = dep.trace_report()
    # Fault-free twin: same seed, same workload, no injector.
    twin, _, twin_engine, _ = _run(config)

    offender = dep.validator_keypair(config.byzantine_validator).public_key
    invariants: dict[str, bool] = {}
    failures: list[str] = []

    def verdict(name: str, holds: bool, failure: str) -> None:
        invariants[name] = holds
        if not holds:
            failures.append(failure)

    failures += _conservation(dep, channels, "PICA")
    invariants["conservation"] = not failures

    received = dep.contract.ibc.counters.packets_received
    acked = dep.counterparty.ibc.counters.packets_acknowledged
    verdict("exactly_once",
            engine.delivered == engine.committed
            and engine.outstanding() == 0
            and engine.send_failures == 0
            and acked == received == engine.committed,
            f"exactly-once broken: committed {engine.committed}, "
            f"delivered {engine.delivered}, "
            f"outstanding {engine.outstanding()}, "
            f"received {received}, acked {acked}")

    verdict("offender_slashed", dep.contract.staking.stake_of(offender) == 0,
            "equivocating validator kept its stake")
    epoch = dep.contract.current_epoch
    verdict("offender_out_of_quorum",
            epoch is not None and not epoch.is_validator(offender),
            "equivocating validator still in the current epoch")

    # Accountable safety: every seeded quorum equivocation must end in
    # an on-chain AccountabilityProof whose offender set carries >= 1/3
    # of the epoch's voting power; the fault-free twin must never slash.
    slashes = list(dep.contract.accountability_slashes)
    seeded_equivocations = injector.summary()["quorum_equivocations_seeded"]
    verdict("safety_violation_attributed",
            len(slashes) >= seeded_equivocations
            and all(rec["offender_stake"] * 3 >= rec["total_stake"]
                    for rec in slashes),
            f"safety violations not attributed: {seeded_equivocations} "
            f"seeded, {len(slashes)} slashed on chain")
    verdict("twin_accountability_untouched",
            not twin.contract.accountability_slashes
            and not (twin.fisherman and twin.fisherman.accountability_reports),
            "fault-free twin recorded accountability slashes")

    fingerprint = ledger_fingerprint(dep)
    twin_fingerprint = ledger_fingerprint(twin)
    verdict("differential_match", fingerprint == twin_fingerprint,
            f"ledger diverged from the fault-free twin: "
            f"{fingerprint[:16]} != {twin_fingerprint[:16]}")
    if twin_engine.delivered != engine.delivered:
        failures.append(
            f"twin delivered {twin_engine.delivered} packets, "
            f"chaos run {engine.delivered}")

    recovery = {
        name.removeprefix("chaos.recovery_seconds."):
            trace.histogram_summary(name).to_json()
        for name in sorted(trace.histograms)
        if name.startswith("chaos.recovery_seconds.")
    }
    chaos_counters = {
        name: count for name, count in sorted(trace.counters.items())
        if name.startswith(("chaos.", "relay.", "fisherman.", "gossip.",
                            "guest.accountability."))
    }
    report = engine.report()
    return {
        "experiment": "chaos_soak",
        "config": asdict(config),
        "plan": plan.to_dict(),
        "faults": injector.summary()["faults"],
        "workload": {
            "sent": report.sent,
            "committed": report.committed,
            "delivered": report.delivered,
            "send_failures": report.send_failures,
            "outstanding": engine.outstanding(),
            "latency_p50_s": report.latency_p50,
            "latency_p95_s": report.latency_p95,
            "latency_p99_s": report.latency_p99,
            "twin_delivered": twin_engine.delivered,
        },
        "recovery_seconds": recovery,
        "redelivery": {
            "redeliveries": dep.relayer.metrics.redeliveries,
            "retries": dep.relayer.metrics.retries,
            "crashes": dep.relayer.metrics.crashes,
        },
        "counters": chaos_counters,
        "accountability": {
            "seeded_equivocations": seeded_equivocations,
            "slashes_attributed": len(slashes),
            "slashes": slashes,
            "burned_total": dep.contract.burned_total,
            "proof_submissions": [
                {"proof_id": report.proof_id, "height": report.height,
                 "offender_count": report.offender_count,
                 "accepted": report.accepted, "error": report.error}
                for report in (dep.fisherman.accountability_reports
                               if dep.fisherman else ())
            ],
            "twin_slashes": len(twin.contract.accountability_slashes),
        },
        "fingerprints": {"chaos": fingerprint, "fault_free": twin_fingerprint},
        "invariants": invariants,
        "failures": failures,
        "converged": not failures,
    }


def smoke_config(seed: int = 505) -> ChaosSoakConfig:
    """CI scale: same storm shape, one minute of sending.

    The plan's last fault starts at t=230 s, so the sending window plus
    drain still covers the whole storm and its recoveries.
    """
    return ChaosSoakConfig(
        seed=seed, offered_pps=4.0, duration=60.0,
        drain_seconds=2_400.0, channels=1, epoch_length_host_blocks=750,
    )


def run_chaos_smoke(seed: int = 505) -> dict:
    return run_chaos_soak(smoke_config(seed))


def check_chaos_smoke(record: dict) -> list[str]:
    """Assertions for the CI smoke run; returns failure messages."""
    failures = list(record.get("failures", ()))
    if not record.get("converged"):
        failures.append("record not converged")
    invariants = record.get("invariants", {})
    for name in ("conservation", "exactly_once", "offender_slashed",
                 "offender_out_of_quorum", "differential_match",
                 "safety_violation_attributed",
                 "twin_accountability_untouched"):
        if not invariants.get(name):
            failures.append(f"invariant {name} failed")
    accountability = record.get("accountability")
    if not isinstance(accountability, dict):
        failures.append("record missing the accountability section")
    else:
        if not isinstance(accountability.get("slashes_attributed"), int):
            failures.append("accountability.slashes_attributed missing")
        elif accountability["slashes_attributed"] < 1:
            failures.append("storm produced no attributed slashes")
        for rec in accountability.get("slashes", ()):
            if rec["offender_stake"] * 3 < rec["total_stake"]:
                failures.append(
                    f"slash at height {rec['height']} attributed "
                    f"< 1/3 of voting power")
        if accountability.get("twin_slashes"):
            failures.append("fault-free twin was slashed")
    workload = record.get("workload", {})
    if workload.get("delivered", 0) <= 0:
        failures.append("no packets delivered through the storm")
    faults = record.get("faults", ())
    stuck = [fault["kind"] for fault in faults if not fault["began"]]
    if stuck:
        failures.append(f"faults never fired: {stuck}")
    unrecovered = [
        fault["kind"] for fault in faults
        if fault["recovered_after"] is None or fault["recovered_after"] < 0
    ]
    if unrecovered:
        failures.append(f"faults never recovered: {unrecovered}")
    return sorted(set(failures))


def render_chaos(record: dict) -> str:
    """Human-readable summary (for the CLI and pytest -s)."""
    workload = record["workload"]
    lines = [
        "Chaos soak "
        f"(seed {record['config']['seed']}, "
        f"{len(record['plan']['specs'])} faults)",
        f"  packets: {workload['delivered']}/{workload['committed']} "
        f"delivered, p50 {workload['latency_p50_s']:.1f} s, "
        f"p99 {workload['latency_p99_s']:.1f} s",
        f"  redeliveries {record['redelivery']['redeliveries']}, "
        f"retries {record['redelivery']['retries']}, "
        f"relayer crashes {record['redelivery']['crashes']}",
    ]
    for kind, summary in record["recovery_seconds"].items():
        lines.append(
            f"  recovery {kind}: p50 {summary['p50']:.1f} s, "
            f"p99 {summary['p99']:.1f} s")
    accountability = record.get("accountability", {})
    if accountability:
        lines.append(
            f"  accountability: {accountability['slashes_attributed']} "
            f"slash(es) for {accountability['seeded_equivocations']} seeded "
            f"equivocation(s), {accountability['burned_total']} "
            f"lamports burned")
    verdicts = ", ".join(
        f"{name}={'ok' if value else 'FAIL'}"
        for name, value in record["invariants"].items())
    lines.append(f"  invariants: {verdicts}")
    lines.append(f"  verdict: {'CONVERGED' if record['converged'] else 'FAILED'}")
    return "\n".join(lines)
