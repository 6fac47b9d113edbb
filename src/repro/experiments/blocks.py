"""Fig. 6: the guest inter-block interval distribution.

A multi-day run with paper-like traffic (tens of packets per day,
diurnally modulated): blocks are generated when the state root moves, or
after Δ = 1 h at the latest, so the interval distribution follows the
arrival process up to a hard cut-off at Δ — with roughly a quarter of the
blocks at the cut-off (empty blocks), and a handful of intervals *far*
beyond it caused by the Validator #1 outage stalling finalisation (§V-C).

The host runs with coarser 2-second slots here: every measured quantity
is minutes-to-hours scale, and the coarser slots make the multi-day
simulation ~5× cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
from repro.validators.profiles import deployment_profiles


@dataclass
class BlockIntervalConfig:
    """Parameters of the Fig. 6 run."""

    seed: int = 606
    duration: float = 4 * 24 * 3600.0
    delta_seconds: float = 3600.0
    #: Base mean gap between packets; calibrated so ~a quarter of gaps
    #: exceed Δ (P(gap > Δ) = exp(-Δ/gap) ≈ 0.25 → gap ≈ Δ/1.386).
    send_mean_gap: float = 2_600.0
    #: Validator #1's outage — the cause of the >Δ stragglers.
    outage_seconds: float = 36_000.0
    #: Epoch length in slots (kept at the paper's ≈11 h wall time).
    epoch_length_slots: int = 20_000


#: Diurnal modulation amplitude of the arrival rate.
DIURNAL_AMPLITUDE = 0.6
#: The coarser host slots this run uses (module docstring).
HOST_SLOT_SECONDS = 2.0

#: What ``python -m repro.experiments fig6`` runs: three days (at the
#: CLI's seed) show the cut-off share and the outage straggler in a
#: third less wall time than the benchmark's four.
CLI_DURATION = 3 * 24 * 3600.0


@dataclass
class BlockIntervalResults:
    intervals: list[float] = field(default_factory=list)
    total_blocks: int = 0
    at_delta_cutoff: int = 0
    far_over_delta: int = 0

    def cutoff_share(self) -> float:
        return self.at_delta_cutoff / max(1, len(self.intervals))


class BlockIntervalRun:
    """Drives the Fig. 6 deployment."""

    def __init__(self, config: Optional[BlockIntervalConfig] = None) -> None:
        self.config = config or BlockIntervalConfig()
        cfg = self.config
        self.deployment = Deployment(DeploymentConfig(
            seed=cfg.seed,
            run_duration=cfg.duration,
            guest=GuestConfig(
                delta_seconds=cfg.delta_seconds,
                epoch_length_host_blocks=cfg.epoch_length_slots,
            ),
            host=HostConfig(slot_seconds=HOST_SLOT_SECONDS),
            profiles=deployment_profiles(outage_seconds=cfg.outage_seconds),
            cranker_poll_seconds=5.0,
        ))
        self._rng = self.deployment.sim.rng.fork("fig6-workload")
        self._channel = None

    def _arrival_gap(self) -> float:
        """Poisson gap whose rate swings diurnally (thinning by scaling
        the mean with the time-of-day factor)."""
        cfg = self.config
        phase = 2.0 * math.pi * (self.deployment.sim.now % 86_400.0) / 86_400.0
        factor = 1.0 + DIURNAL_AMPLITUDE * math.sin(phase)
        mean = cfg.send_mean_gap / max(0.2, factor)
        return self._rng.expovariate(1.0 / mean)

    def _send(self) -> None:
        dep = self.deployment
        payload = dep.contract.transfer.make_payload(
            self._channel, "GUEST", 1, "alice", "bob",
        )
        dep.user_api.send_packet("transfer", str(self._channel), payload)
        if dep.sim.now + 1 < self.config.duration:
            dep.sim.schedule(self._arrival_gap(), self._send)

    def execute(self) -> BlockIntervalResults:
        dep = self.deployment
        cfg = self.config
        self._channel, _ = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 10 ** 12)
        dep.sim.schedule(self._arrival_gap(), self._send)
        dep.sim.run_until(cfg.duration)

        times = [b.header.timestamp for b in dep.contract.blocks]
        intervals = [b - a for a, b in zip(times, times[1:])]
        results = BlockIntervalResults(
            intervals=intervals,
            total_blocks=len(dep.contract.blocks),
        )
        # "At the cut-off": within cranker jitter above Δ.
        for interval in intervals:
            if cfg.delta_seconds <= interval < cfg.delta_seconds * 1.05:
                results.at_delta_cutoff += 1
            elif interval >= cfg.delta_seconds * 1.5:
                results.far_over_delta += 1
        return results
