"""Ablations over the design choices §III/§VI discuss.

* **Δ sweep** — the empty-block rate (and hence the validators' standing
  cost) against the Δ parameter: small Δ means frequent empty blocks for
  timely counterparty timestamps; large Δ means slow timeout detection.
* **Fee strategies** — the §VI-B trade-off: landing latency vs cost for
  base / priority / bundle submissions under congestion.
* **Quorum sweep** — block finalisation latency against the required
  stake fraction (more stake → safer but slower/more fragile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Optional

from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.host.accounts import Address
from repro.host.chain import HostChain, HostConfig
from repro.host.fees import (
    SEND_BUNDLE_TIP_LAMPORTS,
    SEND_PRIORITY_CU_PRICE,
    BaseFee,
    BundleFee,
    FeeStrategy,
    PriorityFee,
)
from repro.host.transaction import Instruction, Transaction
from repro.crypto.simsig import SimSigScheme
from repro.metrics.stats import Summary, summarize
from repro.sim.kernel import Simulation
from repro.units import MAX_COMPUTE_UNITS, lamports_to_usd, sol_to_lamports
from repro.validators.profiles import simple_profiles


# ---------------------------------------------------------------------------
# Δ sweep
# ---------------------------------------------------------------------------

@dataclass
class DeltaPoint:
    delta_seconds: float
    blocks: int
    empty_blocks: int
    mean_interval: float

    @property
    def empty_share(self) -> float:
        return self.empty_blocks / max(1, self.blocks)


def delta_sweep(deltas: tuple[float, ...] = (600.0, 1_800.0, 3_600.0, 7_200.0),
                duration: float = 12 * 3600.0,
                send_mean_gap: float = 2_600.0,
                seed: int = 71) -> list[DeltaPoint]:
    """Empty-block share as a function of Δ under fixed traffic."""
    points = []
    for delta in deltas:
        dep = Deployment(DeploymentConfig(
            seed=seed,
            guest=GuestConfig(delta_seconds=delta, min_stake_lamports=1),
            host=HostConfig(slot_seconds=2.0),
            profiles=simple_profiles(4),
            cranker_poll_seconds=5.0,
        ))
        channel, _ = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 10 ** 12)
        rng = dep.sim.rng.fork("delta-sweep")
        dep.sim.schedule(rng.expovariate(1.0 / send_mean_gap), _send_one_guest,
                         dep, channel, rng, duration, send_mean_gap)
        dep.sim.run_until(duration)

        blocks = dep.contract.blocks
        empty = sum(
            1 for prev, cur in zip(blocks, blocks[1:])
            if cur.header.state_root == prev.header.state_root
        )
        times = [b.header.timestamp for b in blocks]
        intervals = [b - a for a, b in zip(times, times[1:])]
        points.append(DeltaPoint(
            delta_seconds=delta,
            blocks=len(blocks),
            empty_blocks=empty,
            mean_interval=sum(intervals) / max(1, len(intervals)),
        ))
    return points


def _send_one_guest(dep: Deployment, channel, rng, duration: float,
                    mean_gap: float) -> None:
    """One user send on the guest, then the next after a Poisson gap
    while the run lasts."""
    payload = dep.contract.transfer.make_payload(channel, "GUEST", 1, "alice", "bob")
    dep.user_api.send_packet("transfer", str(channel), payload)
    if dep.sim.now + 1 < duration:
        dep.sim.schedule(rng.expovariate(1.0 / mean_gap), _send_one_guest,
                         dep, channel, rng, duration, mean_gap)


def _submit_probe(chain: HostChain, payer: Address, sink: Address,
                  strategy: FeeStrategy, landed: list[tuple[float, int]]) -> None:
    """One transaction to the sink program under ``strategy``; its
    latency from now and its fee join ``landed``."""
    tx = Transaction(
        payer=payer,
        instructions=(Instruction(sink, (), b"x"),),
        fee_strategy=strategy,
        compute_budget=MAX_COMPUTE_UNITS,
    )
    chain.submit(tx, on_result=partial(_probe_landed, landed, chain.sim.now))


def _probe_landed(landed: list[tuple[float, int]], submitted: float,
                  receipt) -> None:
    landed.append((receipt.time - submitted, receipt.fee_paid))


# ---------------------------------------------------------------------------
# Fee-strategy trade-off (§VI-B)
# ---------------------------------------------------------------------------

@dataclass
class FeeStrategyPoint:
    name: str
    latency: Summary
    mean_cost_usd: float


def fee_strategy_tradeoff(congestion: float = 0.7, samples: int = 150,
                          seed: int = 72) -> list[FeeStrategyPoint]:
    """Landing latency vs cost for each strategy on a congested host."""
    sim = Simulation(seed=seed)
    chain = HostChain(sim, SimSigScheme(), HostConfig(
        base_congestion=congestion, diurnal_congestion=0.0, spike_probability=0.0,
    ))
    payer = Address.derive("fee-ablation-payer")
    chain.airdrop(payer, sol_to_lamports(10_000.0))

    sink = Address.derive("fee-ablation-program")

    class Sink:
        program_id = sink

        def execute(self, ctx, data):
            ctx.meter.charge(5_000)

    chain.deploy(Sink())

    strategies = [
        ("base", BaseFee()),
        ("priority", PriorityFee(compute_unit_price=SEND_PRIORITY_CU_PRICE)),
        ("bundle", BundleFee(tip_lamports=SEND_BUNDLE_TIP_LAMPORTS)),
    ]
    observations: dict[str, list[tuple[float, int]]] = {name: [] for name, _ in strategies}

    for index in range(samples):
        submit_time = index * 20.0
        for name, strategy in strategies:
            sim.schedule_at(submit_time, _submit_probe, chain, payer, sink,
                            strategy, observations[name])
    sim.run_until(samples * 20.0 + 300.0)

    points = []
    for name, _ in strategies:
        data = observations[name]
        points.append(FeeStrategyPoint(
            name=name,
            latency=summarize([latency for latency, _ in data]),
            mean_cost_usd=lamports_to_usd(
                round(sum(fee for _, fee in data) / len(data))
            ),
        ))
    return points


# ---------------------------------------------------------------------------
# Adaptive fees (§VI-B future work, implemented)
# ---------------------------------------------------------------------------

@dataclass
class AdaptiveFeePoint:
    congestion: float
    fixed_cost_usd: float
    adaptive_cost_usd: float
    fixed_latency_median: float
    adaptive_latency_median: float


def adaptive_fee_comparison(congestion_levels: tuple[float, ...] = (0.1, 0.4, 0.8),
                            samples: int = 80,
                            seed: int = 74) -> list[AdaptiveFeePoint]:
    """Fixed priority fee vs the §VI-B adaptive strategy.

    The claim: at low congestion the adaptive sender pays a fraction of
    the fixed fee for comparable latency; at high congestion it matches
    the fixed fee's latency by paying up.
    """
    from repro.host.fees import AdaptiveFee

    points = []
    for level in congestion_levels:
        sim = Simulation(seed=seed)
        chain = HostChain(sim, SimSigScheme(), HostConfig(
            base_congestion=level, diurnal_congestion=0.0, spike_probability=0.0,
        ))
        payer = Address.derive("adaptive-ablation-payer")
        chain.airdrop(payer, sol_to_lamports(10_000.0))
        sink = Address.derive("adaptive-ablation-sink")

        class Sink:
            program_id = sink

            def execute(self, ctx, data):
                ctx.meter.charge(5_000)

        chain.deploy(Sink())
        fixed = PriorityFee(compute_unit_price=SEND_PRIORITY_CU_PRICE)
        adaptive = AdaptiveFee(chain.congestion_now)
        observations: dict[str, list[tuple[float, int]]] = {"fixed": [], "adaptive": []}

        for index in range(samples):
            submit_time = index * 15.0
            for name, strategy in (("fixed", fixed), ("adaptive", adaptive)):
                sim.schedule_at(submit_time, _submit_probe, chain, payer, sink,
                                strategy, observations[name])
        sim.run_until(samples * 15.0 + 120.0)

        fixed_lat = summarize([l for l, _ in observations["fixed"]])
        adaptive_lat = summarize([l for l, _ in observations["adaptive"]])
        mean_fee = lambda rows: lamports_to_usd(
            round(sum(f for _, f in rows) / len(rows))
        )
        points.append(AdaptiveFeePoint(
            congestion=level,
            fixed_cost_usd=mean_fee(observations["fixed"]),
            adaptive_cost_usd=mean_fee(observations["adaptive"]),
            fixed_latency_median=fixed_lat.median,
            adaptive_latency_median=adaptive_lat.median,
        ))
    return points


# ---------------------------------------------------------------------------
# Quorum sweep
# ---------------------------------------------------------------------------

@dataclass
class QuorumPoint:
    quorum_fraction: Fraction
    finalisation_latency: Summary
    stalled_blocks: int


def quorum_sweep(fractions: tuple[Fraction, ...] = (
                     Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(9, 10),
                 ),
                 validators: int = 12,
                 duration: float = 4 * 3600.0,
                 seed: int = 73) -> list[QuorumPoint]:
    """Finalisation latency against the required stake fraction.

    Validators miss ~2 % of blocks (online_probability), so demanding
    more stake slows finalisation and eventually stalls blocks until the
    periodic catch-up sweep fills the gap.
    """
    points = []
    for fraction in fractions:
        dep = Deployment(DeploymentConfig(
            seed=seed,
            guest=GuestConfig(
                delta_seconds=300.0, min_stake_lamports=1,
                quorum_fraction=fraction,
            ),
            profiles=simple_profiles(validators),
        ))
        dep.run_for(duration)
        latencies = []
        stalled = 0
        for block in dep.contract.blocks[1:]:  # genesis self-finalises
            if block.finalised_at is None:
                stalled += 1
            else:
                latency = block.finalised_at - block.generated_at
                latencies.append(latency)
                if latency > 60.0:
                    stalled += 1
        points.append(QuorumPoint(
            quorum_fraction=fraction,
            finalisation_latency=summarize(latencies),
            stalled_blocks=stalled,
        ))
    return points
