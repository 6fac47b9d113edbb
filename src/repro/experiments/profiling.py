"""The soak-scale workload run, timed on the wall clock.

Wall-clock cost is the binding constraint on every large experiment
(docs/PERFORMANCE.md): the 10k-packet soak dominates CI time and caps
how far the topology/population sweeps can scale.  This module runs the
exact soak workload shape of ``tests/test_workload_soak.py`` and reports
the wall-clock summary the benchmark gate tracks (packets/sec of *wall*
time, with events/sec beside it as information; see
``benchmarks/test_wallclock.py`` and the ``wallclock-smoke`` target).
Where the time goes, layer by layer, is the perf ledger's question:
``python3 bench/run.py --workload link_soak --trace 1`` runs the same
shape under ``bench/layers.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.throughput import build_linked_deployment
from repro.guest.config import GuestConfig
from repro.workload import WorkloadEngine, WorkloadSpec


@dataclass(frozen=True)
class SoakConfig:
    """The soak workload shape (mirrors tests/test_workload_soak.py).

    ``packets`` scales the run: the offered rate stays fixed at the
    soak's 40 pps and the sending window stretches to fit, so a scaled
    run exercises the same steady-state hot paths as the full one.
    """

    seed: int = 29
    packets: int = 10_000
    offered_pps: float = 40.0
    channels: int = 3
    amount: int = 3
    batch_max_packets: int = 32
    batch_flush_seconds: float = 2.0
    delta_seconds: float = 120.0
    drain_seconds: float = 1_800.0
    tracing: bool = True

    @property
    def duration(self) -> float:
        return self.packets / self.offered_pps


@dataclass
class SoakResult:
    """What one soak run measured, in wall-clock terms."""

    sent: int
    delivered: int
    outstanding: int
    events_dispatched: int
    wall_seconds: float
    simulated_seconds: float

    @property
    def events_per_sec(self) -> float:
        return self.events_dispatched / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def packets_per_sec(self) -> float:
        return self.delivered / self.wall_seconds if self.wall_seconds else 0.0

    def to_json(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "outstanding": self.outstanding,
            "events_dispatched": self.events_dispatched,
            "wall_seconds": round(self.wall_seconds, 3),
            "simulated_seconds": self.simulated_seconds,
            "events_per_sec": round(self.events_per_sec, 1),
            "packets_per_sec": round(self.packets_per_sec, 2),
        }


#: ``wallclock-smoke`` scale, and the packets delivered per second of
#: wall time it must clear (generous: CI machines vary).  The floor is
#: on the work done, not on events dispatched: a change that stops
#: dispatching events that did nothing lowers events/s while every
#: packet lands sooner.  Constants, not options: a gate whose threshold
#: is a flag is a gate anyone can lower.
WALLCLOCK_SMOKE_PACKETS = 1_500
WALLCLOCK_FLOOR_PACKETS_PER_SEC = 70.0


def run_soak(config: SoakConfig) -> SoakResult:
    """Run the soak workload once and time it.

    Only the workload run itself is timed — deployment construction and
    channel handshakes are excluded — so the rate reflects the
    steady-state packet pipeline.
    """
    dep, channels = build_linked_deployment(
        config.seed,
        GuestConfig(delta_seconds=config.delta_seconds, min_stake_lamports=1),
        (config.batch_max_packets, config.batch_flush_seconds),
        config.channels, tracing=config.tracing,
    )
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant",
        offered_pps=config.offered_pps,
        duration=config.duration,
        amount=config.amount,
        drain_seconds=config.drain_seconds,
    ))
    events_before = dep.sim.dispatched_events()
    sim_before = dep.sim.now
    started = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - started
    return SoakResult(
        sent=engine.sent,
        delivered=engine.delivered,
        outstanding=engine.outstanding(),
        events_dispatched=dep.sim.dispatched_events() - events_before,
        wall_seconds=wall,
        simulated_seconds=dep.sim.now - sim_before,
    )


def run_wallclock_smoke(seed: int = SoakConfig.seed) -> dict:
    """The scaled soak behind the CI wall-clock gate, as its record."""
    config = SoakConfig(seed=seed, packets=WALLCLOCK_SMOKE_PACKETS)
    return {
        "packets": config.packets,
        "floor_packets_per_sec": WALLCLOCK_FLOOR_PACKETS_PER_SEC,
        **run_soak(config).to_json(),
    }


def check_wallclock(record: dict) -> list[str]:
    """The gate: everything delivered, and fast enough."""
    failures = []
    if record["outstanding"]:
        failures.append(f"{record['outstanding']} packets never delivered")
    if record["packets_per_sec"] < record["floor_packets_per_sec"]:
        failures.append(
            f"{record['packets_per_sec']:.0f} packets/s wall is below the "
            f"{record['floor_packets_per_sec']:.0f} floor")
    return failures


def render_soak_result(record: dict, title: str = "soak") -> str:
    """One line from a :meth:`SoakResult.to_json` record."""
    return (
        f"{title}: {record['delivered']}/{record['sent']} packets delivered, "
        f"{record['events_dispatched']} events in "
        f"{record['wall_seconds']:.2f} s wall "
        f"({record['events_per_sec']:,.0f} events/s, "
        f"{record['packets_per_sec']:,.1f} packets/s wall; "
        f"{record['simulated_seconds']:,.0f} simulated s)"
    )
