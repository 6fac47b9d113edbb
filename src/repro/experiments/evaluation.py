"""The main evaluation run: the September-2024 deployment, scaled.

One simulated deployment with the Table I validator profiles, a
guest→counterparty transfer workload whose senders split 17 % / 83 %
between priority fees and block bundles (§V-A), and a counterparty→guest
workload that forces chunked light-client updates (§V-A/B).  The run
produces every per-packet and per-update series that Figs. 2–5, Table I
and the ReceivePacket paragraph report.

Scaling note (documented in EXPERIMENTS.md): the paper measured one
month of mainnet traffic; the default here simulates 24 hours with
proportionally faster workloads and a proportionally shorter Validator
#1 outage, which preserves every distribution shape while keeping the
run tractable.  Pass a longer ``duration`` for closer absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.counterparty.chain import CounterpartyConfig
from repro.deployment import Deployment, DeploymentConfig
from repro.guest.api import DeliveryResult, LcUpdateResult
from repro.guest.config import GuestConfig
from repro.host.events import HostEvent
from repro.host.fees import (
    SEND_BUNDLE_TIP_LAMPORTS,
    SEND_PRIORITY_CU_PRICE,
    PriorityFee,
)
from repro.host.transaction import TxReceipt
from repro.metrics.stats import Summary, correlation, summarize
from repro.observability import TraceReport
from repro.relayer.relayer import RelayerConfig
from repro.units import MAX_COMPUTE_UNITS, lamports_to_cents, lamports_to_usd
from repro.validators.profiles import deployment_profiles

#: Share of senders using priority fees; the rest use bundles (§V-A
#: reports 17 % / 83 %).  What each pays is Fig. 3's two price points,
#: ``repro.host.fees.SEND_PRIORITY_CU_PRICE`` / ``SEND_BUNDLE_TIP_LAMPORTS``.
PRIORITY_SHARE = 0.17
#: Synthetic entries pre-loading the counterparty store (proof depth).
COUNTERPARTY_PRELOAD = 3_000


@dataclass
class EvaluationConfig:
    """Parameters of the evaluation deployment."""

    seed: int = 2024
    #: Simulated duration (the paper's month, scaled; see module docs).
    duration: float = 24 * 3600.0
    #: Mean gap between guest-side sends (Poisson arrivals).
    send_mean_gap: float = 420.0
    #: Mean gap between counterparty-side sends (each one drives a
    #: chunked light-client update on the guest).
    cp_send_mean_gap: float = 780.0
    #: Validator #1's outage, scaled from the mainnet ~10 h (§V-C).
    outage_seconds: float = 2_400.0
    #: Epoch length in host slots, scaled from the mainnet 100 000 slots
    #: (≈ 11 h of a month) to the same share of the simulated duration.
    epoch_length_slots: int = 4_500
    #: Record tracing spans/counters during the run (docs/OBSERVABILITY.md).
    #: On by default: the latency-decomposition and send-cost benches
    #: read their phase breakdowns straight from the trace report.
    tracing: bool = True
    #: What the relayer's chunked updates carry
    #: (:data:`repro.relayer.updates.LC_UPDATE_PLANS`).  The Fig. 4/5
    #: reproduction sets ``"paper"``: the deployment's ~36 transactions.
    lc_update_plan: str = "quorum"


@dataclass
class SendRecord:
    """One Fig. 2 / Fig. 3 sample."""

    sequence: int
    strategy: str                   # "priority" | "bundle"
    committed_time: Optional[float] = None
    finalised_time: Optional[float] = None
    fee_paid: Optional[int] = None
    #: When the guest block containing this packet was generated — the
    #: boundary between "waiting for a block" and "waiting for quorum".
    block_generated_time: Optional[float] = None

    @property
    def wait_for_block(self) -> Optional[float]:
        if self.committed_time is None or self.block_generated_time is None:
            return None
        return self.block_generated_time - self.committed_time

    @property
    def wait_for_quorum(self) -> Optional[float]:
        if self.block_generated_time is None or self.finalised_time is None:
            return None
        return self.finalised_time - self.block_generated_time

    @property
    def latency(self) -> Optional[float]:
        if self.committed_time is None or self.finalised_time is None:
            return None
        return self.finalised_time - self.committed_time

    @property
    def cost_usd(self) -> Optional[float]:
        return lamports_to_usd(self.fee_paid) if self.fee_paid is not None else None


@dataclass
class ValidatorRow:
    """One row of the reproduced Table I."""

    index: int
    signatures: int
    cost_cents: float
    latency: Optional[Summary]


@dataclass
class EvaluationResults:
    """Everything the Fig. 2–5 / Table I benches read."""

    sends: list[SendRecord] = field(default_factory=list)
    lc_updates: list[LcUpdateResult] = field(default_factory=list)
    deliveries: list[DeliveryResult] = field(default_factory=list)
    validator_rows: list[ValidatorRow] = field(default_factory=list)
    block_intervals: list[float] = field(default_factory=list)
    silent_validators: int = 0
    cost_latency_correlation: float = 0.0
    #: Observability snapshot of the run (empty if tracing was off).
    trace: Optional[TraceReport] = None

    def send_latencies(self) -> list[float]:
        return [r.latency for r in self.sends if r.latency is not None]

    def send_costs_usd(self) -> list[float]:
        return [r.cost_usd for r in self.sends if r.cost_usd is not None]


class EvaluationRun:
    """Builds, drives and harvests the evaluation deployment."""

    def __init__(self, config: Optional[EvaluationConfig] = None) -> None:
        self.config = config or EvaluationConfig()
        cfg = self.config
        profiles = deployment_profiles(outage_seconds=cfg.outage_seconds)
        self.deployment = Deployment(DeploymentConfig(
            seed=cfg.seed,
            run_duration=cfg.duration,
            guest=GuestConfig(epoch_length_host_blocks=cfg.epoch_length_slots),
            counterparty=CounterpartyConfig(
                store_preload_entries=COUNTERPARTY_PRELOAD),
            relayer=RelayerConfig(lc_update_plan=cfg.lc_update_plan),
            profiles=profiles,
            tracing=cfg.tracing,
        ))
        self._rng = self.deployment.sim.rng.fork("evaluation-workload")
        self._send_queue: list[SendRecord] = []
        self._sends_by_seq: dict[int, SendRecord] = {}
        self.results = EvaluationResults()
        self._guest_channel = None
        self._cp_channel = None

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------

    def _next_gap(self, mean: float) -> float:
        return self._rng.expovariate(1.0 / mean)

    def _do_guest_send(self) -> None:
        dep = self.deployment
        cfg = self.config
        payload = dep.contract.transfer.make_payload(
            self._guest_channel, "GUEST", 10, "alice", "bob",
        )
        strategy = "priority" if self._rng.bernoulli(PRIORITY_SHARE) else "bundle"
        record = SendRecord(sequence=-1, strategy=strategy)
        self._send_queue.append(record)
        on_receipt = partial(self._send_landed, record)
        if strategy == "priority":
            dep.user_api.send_packet(
                "transfer", str(self._guest_channel), payload,
                fee=PriorityFee(compute_unit_price=SEND_PRIORITY_CU_PRICE),
                compute_budget=MAX_COMPUTE_UNITS,
                on_result=on_receipt,
            )
        else:
            dep.user_api.send_packet_via_bundle(
                "transfer", str(self._guest_channel), payload,
                tip_lamports=SEND_BUNDLE_TIP_LAMPORTS,
                on_result=on_receipt,
            )
        if dep.sim.now + 1 < cfg.duration:
            dep.sim.schedule(self._next_gap(cfg.send_mean_gap), self._do_guest_send)

    def _send_landed(self, record: SendRecord, receipt: TxReceipt) -> None:
        if receipt.success:
            record.fee_paid = receipt.fee_paid
            # Fig. 3's two fee clusters, as trace histograms.
            self.deployment.sim.trace.observe(f"send.fee.{record.strategy}",
                                              receipt.fee_paid)

    def _do_cp_send(self) -> None:
        dep = self.deployment
        cfg = self.config
        cp = dep.counterparty
        cp.submit(partial(cp.send_transfer, self._cp_channel, "PICA", 5,
                          "carol", "dave"))
        if dep.sim.now + 1 < cfg.duration:
            dep.sim.schedule(self._next_gap(cfg.cp_send_mean_gap), self._do_cp_send)

    # ------------------------------------------------------------------
    # Event capture
    # ------------------------------------------------------------------

    def _on_packet_committed(self, event: HostEvent) -> None:
        # Sequences are assigned in execution order, which is exactly the
        # order PacketCommitted events are emitted in.
        for record in self._send_queue:
            if record.committed_time is None:
                record.sequence = event.payload["sequence"]
                record.committed_time = event.time
                self._sends_by_seq[record.sequence] = record
                return

    def _on_finalised(self, event: HostEvent) -> None:
        # Latency decomposition: attribute each packet to the guest block
        # that carried it.
        generated_at = self.deployment.contract.block_at(
            event.payload["height"]).generated_at
        for packet in event.payload["packets"]:
            record = self._sends_by_seq.get(packet.sequence)
            if record is not None and record.finalised_time is None:
                record.finalised_time = event.time
                record.block_generated_time = generated_at

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open the link, fund both senders and schedule the first
        sends: the run from here on is the kernel's."""
        dep = self.deployment
        cfg = self.config
        self._guest_channel, self._cp_channel = dep.establish_link()

        dep.contract.bank.mint("alice", "GUEST", 10 ** 12)
        dep.counterparty.bank.mint("carol", "PICA", 10 ** 12)
        dep.host.subscribe("PacketCommitted", self._on_packet_committed)
        dep.host.subscribe("FinalisedBlock", self._on_finalised)

        dep.sim.schedule(self._next_gap(cfg.send_mean_gap), self._do_guest_send)
        dep.sim.schedule(self._next_gap(cfg.cp_send_mean_gap), self._do_cp_send)

    def execute(self) -> EvaluationResults:
        dep = self.deployment
        cfg = self.config
        self.start()
        dep.sim.run_until(cfg.duration)
        # Grace period: let in-flight finalisations and relays complete.
        dep.sim.run_until(cfg.duration + 1_200.0)

        self._harvest()
        self.results.trace = dep.trace_report()
        return self.results

    def _harvest(self) -> None:
        dep = self.deployment
        results = self.results
        results.sends = [r for r in self._send_queue if r.committed_time is not None]
        results.lc_updates = list(dep.relayer.metrics.lc_updates)
        results.deliveries = list(dep.relayer.metrics.deliveries)

        costs, latencies = [], []
        for node in sorted(dep.validators, key=lambda n: n.profile.index):
            if node.profile.silent:
                results.silent_validators += 1
                continue
            records = node.successful_records()
            row = ValidatorRow(
                index=node.profile.index,
                signatures=len(records),
                cost_cents=(
                    lamports_to_cents(round(
                        sum(r.fee_paid for r in records) / len(records)
                    )) if records else 0.0
                ),
                latency=summarize(node.latencies()) if records else None,
            )
            results.validator_rows.append(row)
            if records:
                costs.append(row.cost_cents)
                latencies.append(row.latency.median)
        if len(costs) >= 2:
            results.cost_latency_correlation = correlation(costs, latencies)

        times = [b.header.timestamp for b in dep.contract.blocks]
        results.block_intervals = [b - a for a, b in zip(times, times[1:])]
