"""Profile the hot paths of a soak-scale workload run.

Wall-clock cost is the binding constraint on every large experiment
(docs/PERFORMANCE.md): the 10k-packet soak dominates CI time and caps
how far the topology/population sweeps can scale.  This module wraps
the exact soak workload shape from ``tests/test_workload_soak.py`` in a
:mod:`cProfile` harness so that optimisation work starts from data, not
hunches::

    PYTHONPATH=src python -m repro.experiments profile-soak
    PYTHONPATH=src python -m repro.experiments profile-soak \
        --profile-packets 2000 --profile-sort tottime --profile-lines 40

The harness reports both the profile table (top functions by the chosen
sort key) and the wall-clock summary the benchmark gate tracks
(events/sec and packets/sec of *wall* time, see
``benchmarks/test_wallclock.py``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass

from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.relayer.relayer import RelayerConfig
from repro.validators.profiles import simple_profiles
from repro.workload import WorkloadEngine, WorkloadSpec


@dataclass(frozen=True)
class SoakConfig:
    """The soak workload shape (mirrors tests/test_workload_soak.py).

    ``packets`` scales the run: the offered rate stays fixed at the
    soak's 40 pps and the sending window stretches to fit, so a scaled
    profile exercises the same steady-state hot paths as the full run.
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


def build_soak(config: SoakConfig):
    """A linked multi-channel deployment plus its workload engine."""
    dep = Deployment(DeploymentConfig(
        seed=config.seed,
        guest=GuestConfig(delta_seconds=config.delta_seconds,
                          min_stake_lamports=1),
        relayer=RelayerConfig(
            batch_max_packets=config.batch_max_packets,
            batch_flush_seconds=config.batch_flush_seconds,
        ),
        profiles=simple_profiles(4),
        tracing=config.tracing,
    ))
    # The first call opens the connection too; each further one adds a
    # channel over it.
    channels = [dep.establish_link() for _ in range(config.channels)]
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant",
        offered_pps=config.offered_pps,
        duration=config.duration,
        amount=config.amount,
        drain_seconds=config.drain_seconds,
    ))
    return dep, engine


def run_soak(config: SoakConfig) -> SoakResult:
    """Run the soak workload once and time it (no profiler overhead)."""
    dep, engine = build_soak(config)
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


def profile_soak(config: SoakConfig, sort: str = "cumulative",
                 lines: int = 30) -> tuple[SoakResult, str]:
    """Run the soak under :mod:`cProfile`; return (result, profile table).

    The profiler is attached only around the workload run itself —
    deployment construction and channel handshakes are excluded, so the
    table reflects the steady-state packet pipeline the optimisation
    work targets.
    """
    dep, engine = build_soak(config)
    events_before = dep.sim.dispatched_events()
    sim_before = dep.sim.now
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    engine.run()
    profiler.disable()
    wall = time.perf_counter() - started
    result = SoakResult(
        sent=engine.sent,
        delivered=engine.delivered,
        outstanding=engine.outstanding(),
        events_dispatched=dep.sim.dispatched_events() - events_before,
        wall_seconds=wall,
        simulated_seconds=dep.sim.now - sim_before,
    )
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(lines)
    return result, buffer.getvalue()


def render_soak_result(result: SoakResult, title: str = "soak") -> str:
    return (
        f"{title}: {result.delivered}/{result.sent} packets delivered, "
        f"{result.events_dispatched} events in {result.wall_seconds:.2f} s wall "
        f"({result.events_per_sec:,.0f} events/s, "
        f"{result.packets_per_sec:,.1f} packets/s wall; "
        f"{result.simulated_seconds:,.0f} simulated s)"
    )
