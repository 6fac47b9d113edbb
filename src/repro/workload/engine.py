"""The workload engine: seeded traffic through a live deployment.

The engine drives counterparty → guest ICS-20 transfers (the direction
where every packet costs the relayer host transactions, so throughput
and fees are interesting) across any number of channels and users.  It
records, for every packet, the simulated time the send committed on the
counterparty and the on-chain time the guest received it, yielding
end-to-end latency percentiles alongside sustained packets/sec and the
relayer's fee cost per packet.

All timing comes from the simulation clock and all randomness from
forked rng sub-streams: the full report is a deterministic function of
the deployment seed and the workload spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.errors import ReproError
from repro.metrics.stats import percentile
from repro.units import lamports_to_usd
from repro.workload.generators import ClosedLoopMarker, make_arrivals


@dataclass
class WorkloadSpec:
    """What traffic to offer and for how long."""

    #: ``open-constant`` | ``open-poisson`` | ``open-bursty`` | ``closed``.
    mode: str = "open-constant"
    #: Target rate for the open-loop modes (packets/sec, all channels).
    offered_pps: float = 1.0
    #: Sending window in simulated seconds.
    duration: float = 600.0
    #: In-flight cap for ``closed`` mode.
    window: int = 8
    #: Sending accounts on the counterparty (round-robined).
    users: tuple[str, ...] = ("wl-user-0", "wl-user-1", "wl-user-3")
    denom: str = "PICA"
    amount: int = 1
    #: Extra simulated time :meth:`WorkloadEngine.run` allows after the
    #: sending window so in-flight packets can land.
    drain_seconds: float = 600.0


@dataclass
class WorkloadReport:
    """What a workload run measured (all times in simulated seconds)."""

    mode: str
    offered_pps: float
    duration: float
    sent: int
    committed: int
    delivered: int
    send_failures: int
    sustained_pps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    relayer_fee_lamports: int
    relayer_txs: int
    fee_lamports_per_packet: float
    fee_usd_per_packet: float
    latencies: list[float] = field(repr=False, default_factory=list)


class WorkloadEngine:
    """Offer traffic to a linked deployment and measure what lands."""

    def __init__(self, deployment, channels, spec: Optional[WorkloadSpec] = None) -> None:
        self.dep = deployment
        self.spec = spec or WorkloadSpec()
        #: ``(guest_channel, cp_channel)`` pairs, as returned by
        #: ``establish_link`` / ``Relayer.open_channel``.
        self.channels = list(channels)
        if not self.channels:
            raise ValueError("workload needs at least one channel")
        self.rng = deployment.sim.rng.fork("workload-engine")
        self.arrivals = make_arrivals(
            self.spec.mode, rng=self.rng, pps=self.spec.offered_pps,
            window=self.spec.window,
            congestion=deployment.host.congestion_at,
        )
        self.sent = 0
        self.committed = 0
        self.delivered = 0
        self.send_failures = 0
        self.latencies: list[float] = []
        self._send_times: dict[tuple[str, int], float] = {}
        self._started_at: Optional[float] = None
        self._deadline = 0.0
        self._last_delivery_at = 0.0
        self._fee_baseline = 0
        self._tx_baseline = 0
        self._started = False

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Fund the senders, hook delivery events and begin sending."""
        if self._started:
            raise ReproError("workload engine already started")
        self._started = True
        sim = self.dep.sim
        self._started_at = sim.now
        self._deadline = sim.now + self.spec.duration
        self._fee_baseline, self._tx_baseline = self._relayer_spend()

        # Over-fund each sender: open-loop offered load bounds the send
        # count; closed-loop is bounded by deliveries within duration.
        upper = int(self.spec.offered_pps * self.spec.duration) + self.spec.window + 16
        for user in self.spec.users:
            self.dep.counterparty.bank.mint(user, self.spec.denom, upper * self.spec.amount)

        self.dep.host.subscribe("PacketReceived", self._on_received)

        if isinstance(self.arrivals, ClosedLoopMarker):
            for _ in range(self.arrivals.window):
                self._send_one(reschedule=False)
        else:
            self._send_one(reschedule=True)

    @property
    def end_time(self) -> float:
        """The finish line of a started run: sending window plus drain.
        Callers that slice or snapshot between ``run_until`` calls run to
        here instead of calling :meth:`run`."""
        assert self._started_at is not None, "start() the engine first"
        return self._started_at + self.spec.duration + self.spec.drain_seconds

    def run(self) -> WorkloadReport:
        """Convenience: start, run the sending window plus the drain,
        and return the report."""
        self.start()
        self.dep.run_for(self.spec.duration + self.spec.drain_seconds)
        return self.report()

    def _send_one(self, reschedule: bool) -> None:
        sim = self.dep.sim
        if sim.now >= self._deadline:
            return
        cp = self.dep.counterparty
        user = self.spec.users[self.sent % len(self.spec.users)]
        _, cp_chan = self.channels[self.sent % len(self.channels)]
        self.sent += 1
        sim.trace.count("workload.packets.sent")

        cp.submit(partial(cp.send_transfer, cp_chan, self.spec.denom,
                          self.spec.amount, user, f"recv-{user}"),
                  self._committed)

        if reschedule:
            sim.schedule(self.arrivals.next_delay(sim.now), self._send_one, True)

    def _committed(self, value, height: int) -> None:
        """A send's block committed (``value`` is the packet, or the
        error that refused it)."""
        sim = self.dep.sim
        if isinstance(value, ReproError):
            self.send_failures += 1
            sim.trace.count("workload.packets.send_failed")
            return
        self.committed += 1
        key = (str(value.source_channel), value.sequence)
        self._send_times[key] = sim.now

    def _on_received(self, event) -> None:
        packet = event.payload.get("packet")
        if packet is None:
            return
        key = (str(packet.source_channel), packet.sequence)
        sent_at = self._send_times.pop(key, None)
        if sent_at is None:
            return  # not our packet (other traffic on the deployment)
        sim = self.dep.sim
        # ``event.time`` is the on-chain receive time; the callback
        # itself fires after the RPC observation delay.
        latency = event.time - sent_at
        self.latencies.append(latency)
        self.delivered += 1
        self._last_delivery_at = event.time
        sim.trace.count("workload.packets.delivered")
        sim.trace.observe("workload.e2e_latency", latency)
        if isinstance(self.arrivals, ClosedLoopMarker):
            self._send_one(reschedule=False)

    # ------------------------------------------------------------------
    # Measuring
    # ------------------------------------------------------------------

    def _relayer_spend(self) -> tuple[int, int]:
        ledger = self.dep.relayer.ledger
        fees = sum(ledger.by_category.values())
        txs = sum(ledger.transactions.values())
        return fees, txs

    def outstanding(self) -> int:
        """Committed sends not yet received on the guest."""
        return len(self._send_times)

    def report(self) -> WorkloadReport:
        assert self._started_at is not None, "start() the engine first"
        fees, txs = self._relayer_spend()
        fees -= self._fee_baseline
        txs -= self._tx_baseline
        if self.delivered:
            elapsed = max(self._last_delivery_at - self._started_at, 1e-9)
            sustained = self.delivered / elapsed
            fee_per_packet = fees / self.delivered
        else:
            sustained = 0.0
            fee_per_packet = 0.0
        # Sort once, reuse for every percentile.  The library-wide
        # linear-interpolated percentile (repro.metrics.stats) replaced
        # the engine's old nearest-rank copy, so reported p50/p95/p99
        # shift by a fraction of a sample interval relative to earlier
        # result files; it raises on empty input, hence the guard.
        ordered = sorted(self.latencies)
        if ordered:
            p50, p95, p99 = (percentile(ordered, f) for f in (0.50, 0.95, 0.99))
        else:
            p50 = p95 = p99 = 0.0
        return WorkloadReport(
            mode=self.spec.mode,
            offered_pps=self.spec.offered_pps,
            duration=self.spec.duration,
            sent=self.sent,
            committed=self.committed,
            delivered=self.delivered,
            send_failures=self.send_failures,
            sustained_pps=sustained,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            relayer_fee_lamports=fees,
            relayer_txs=txs,
            fee_lamports_per_packet=fee_per_packet,
            fee_usd_per_packet=lamports_to_usd(fee_per_packet),
            latencies=list(self.latencies),
        )
