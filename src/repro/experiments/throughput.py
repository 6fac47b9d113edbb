"""Throughput experiment: offered load vs. what the relayer sustains.

Sweeps offered packet rate across relayer batching configurations on
identical seeds and reports, per point, the sustained packets/sec,
end-to-end latency percentiles (from the observability layer's
``workload.e2e_latency`` histogram), and host fee cost per packet.

The interesting regime is scarce block space: with the default
2048-tx blocks the host never saturates, so the sweep lowers
``block_tx_limit`` until the per-packet transaction overhead is the
binding constraint.  There, coalescing RecvPacket messages into one
transaction (``RelayerConfig.batch_max_packets > 1``) multiplies how
many packets fit per block — the measured win of §V-style batching.

Everything is simulated time on fixed seeds, so every number this
module produces is deterministic across hosts and runs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
from repro.observability.report import TraceReport
from repro.relayer.relayer import RelayerConfig
from repro.validators.profiles import simple_profiles
from repro.workload import WorkloadEngine, WorkloadSpec


@dataclass(frozen=True)
class ThroughputPointConfig:
    """One (offered load, batching config) measurement."""

    seed: int = 101
    mode: str = "open-constant"
    offered_pps: float = 1.0
    duration: float = 300.0
    drain_seconds: float = 2400.0
    channels: int = 2
    #: Relayer coalescing: 1 = classic packet-at-a-time relaying.
    batch_max_packets: int = 1
    batch_flush_seconds: float = 2.0
    #: Scarce block space makes per-packet tx overhead the bottleneck.
    block_tx_limit: int = 8
    delta_seconds: float = 120.0


def build_linked_deployment(seed: int, guest: GuestConfig,
                            batching: tuple[int, float], channels: int, *,
                            host: Optional[HostConfig] = None,
                            validators: int = 4,
                            with_fisherman: bool = False,
                            tracing: bool = True):
    """The one link-under-load world: a deployment whose relayer batches
    ``batching = (max packets, flush seconds)``, plus ``channels`` open
    channels.  Every experiment that offers a workload to a link
    (throughput points, the soak, the chaos storm, the replay audit)
    builds here, so equal arguments mean a bit-identical world."""
    batch_max_packets, batch_flush_seconds = batching
    dep = Deployment(DeploymentConfig(
        seed=seed,
        guest=guest,
        host=host if host is not None else HostConfig(),
        relayer=RelayerConfig(
            batch_max_packets=batch_max_packets,
            batch_flush_seconds=batch_flush_seconds,
        ),
        profiles=simple_profiles(validators),
        with_fisherman=with_fisherman,
        tracing=tracing,
    ))
    # The first call opens the connection too; each further one adds a
    # channel over it.
    return dep, [dep.establish_link() for _ in range(channels)]


def start_point(config: ThroughputPointConfig):
    """A point's world with its workload engine started: ``(dep, engine)``.

    Run it to ``engine.end_time`` — in one go, or in slices with
    snapshots in between (cluster workers, the replay audit): slicing a
    ``run_until`` does not change which events run.
    """
    dep, channels = build_linked_deployment(
        config.seed,
        GuestConfig(delta_seconds=config.delta_seconds, min_stake_lamports=1),
        (config.batch_max_packets, config.batch_flush_seconds),
        config.channels,
        host=HostConfig(block_tx_limit=config.block_tx_limit),
    )
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode=config.mode,
        offered_pps=config.offered_pps,
        duration=config.duration,
        drain_seconds=config.drain_seconds,
    ))
    engine.start()
    return dep, engine


def run_throughput_point(config: ThroughputPointConfig) -> dict:
    """Measure one sweep point; returns a JSON-ready record."""
    dep, engine = start_point(config)
    dep.sim.run_until(engine.end_time)
    return point_record(config, dep, engine)


def point_record(config: ThroughputPointConfig, dep, engine, *,
                 collect_trace: bool = False) -> dict:
    """The JSON record for a *finished* point.

    Shared by the serial path above and the cluster workers' resumable
    path (:mod:`repro.cluster.worker`), so a point measured either way
    produces byte-identical rows.  With ``collect_trace`` the record
    additionally carries the full ``TraceReport`` JSON under ``"trace"``
    (a sharded sweep merges the per-shard traces and strips them again).
    """
    report = engine.report()
    trace = dep.trace_report()
    try:
        latency_summary = trace.histogram_summary("workload.e2e_latency").to_json()
    except (KeyError, ValueError):
        latency_summary = None  # nothing delivered at this point
    record = {
        "config": asdict(config),
        "offered_pps": config.offered_pps,
        "batch_max_packets": config.batch_max_packets,
        "sent": report.sent,
        "committed": report.committed,
        "delivered": report.delivered,
        "send_failures": report.send_failures,
        "outstanding": engine.outstanding(),
        "sustained_pps": report.sustained_pps,
        "latency_p50_s": report.latency_p50,
        "latency_p95_s": report.latency_p95,
        "latency_p99_s": report.latency_p99,
        "trace_latency": latency_summary,
        "relayer_fee_lamports": report.relayer_fee_lamports,
        "relayer_txs": report.relayer_txs,
        "fee_lamports_per_packet": report.fee_lamports_per_packet,
        "fee_usd_per_packet": report.fee_usd_per_packet,
    }
    if collect_trace:
        record["trace"] = trace.to_json()
    return record


def run_throughput_sweep(
    seed: int = 101,
    offered_loads: tuple[float, ...] = (2.0, 8.0, 16.0),
    batch_sizes: tuple[int, ...] = (1, 32),
    duration: float = 300.0,
    base: ThroughputPointConfig = ThroughputPointConfig(),
    cluster=None,
) -> dict:
    """The full sweep: every offered load under every batching config.

    Same seed per column, so a batched and an unbatched point at the
    same load see identical traffic, congestion and validator draws.

    Points run serially, or — given ``cluster`` (a
    :class:`repro.cluster.ClusterConfig`) — sharded across worker
    processes as ``throughput-point`` tasks.  Same configs, same record
    builder in the workers, merge ordered by task index: the rows are
    identical whatever the worker count.  A sharded result also carries
    ``"cluster": {workers, wall_seconds}`` and, with ``collect_traces``,
    the merged :class:`TraceReport` under ``"merged_trace"``.
    """
    configs = [
        replace(base, seed=seed, offered_pps=offered,
                batch_max_packets=batch, duration=duration)
        for offered in offered_loads for batch in batch_sizes
    ]
    result = {
        "experiment": "throughput_sweep",
        "seed": seed,
        "offered_loads": list(offered_loads),
        "batch_sizes": list(batch_sizes),
        "duration_s": duration,
    }
    if cluster is None:
        result["points"] = [run_throughput_point(config) for config in configs]
        return result

    from repro.cluster import ClusterRunner

    runner = ClusterRunner(cluster)
    started = time.monotonic()
    result["points"] = runner.run_points("throughput-point", configs)
    if cluster.collect_traces:
        # Strip the trace payloads first: the rows stay identical.  (A
        # row resumed from an untraced run's result file carries none.)
        result["merged_trace"] = TraceReport.merge(
            TraceReport.from_json(point.pop("trace"))
            for point in result["points"] if "trace" in point
        ).to_json()
    result["cluster"] = {
        "workers": runner.workers,
        "wall_seconds": round(time.monotonic() - started, 3),
    }
    return result


def run_throughput_smoke(seed: int = 101, cluster=None) -> dict:
    """A scaled-down sweep for CI: two loads, one minute of sending.

    Small enough to run on every push, large enough that the batching
    win is already visible at the saturated point.
    """
    return run_throughput_sweep(
        seed=seed,
        offered_loads=(4.0, 12.0),
        batch_sizes=(1, 16),
        duration=60.0,
        base=ThroughputPointConfig(duration=60.0, drain_seconds=1_200.0),
        cluster=cluster,
    )


def check_smoke(results: dict) -> list[str]:
    """Regression checks over a smoke sweep; returns failure messages.

    The simulation is deterministic, but the thresholds still leave
    slack below the measured values so an intentional small retune of
    relayer defaults does not break CI.
    """
    failures: list[str] = []
    required = (
        "offered_pps", "batch_max_packets", "sent", "committed", "delivered",
        "send_failures", "sustained_pps", "latency_p50_s", "latency_p95_s",
        "latency_p99_s", "relayer_fee_lamports", "fee_lamports_per_packet",
    )
    for index, point in enumerate(results["points"]):
        missing = [key for key in required if key not in point]
        if missing:
            failures.append(f"point {index} missing keys: {missing}")
    if failures:
        return failures
    by_key = {(p["offered_pps"], p["batch_max_packets"]): p
              for p in results["points"]}
    for point in results["points"]:
        where = (f"offered={point['offered_pps']} "
                 f"batch={point['batch_max_packets']}")
        if point["send_failures"]:
            failures.append(f"{where}: {point['send_failures']} send failures")
        if point["delivered"] != point["sent"] or not point["sent"]:
            failures.append(
                f"{where}: delivered {point['delivered']} of {point['sent']}")
    top = max(results["offered_loads"])
    unbatched = by_key[(top, min(results["batch_sizes"]))]
    batched = by_key[(top, max(results["batch_sizes"]))]
    ratio = (batched["sustained_pps"] / unbatched["sustained_pps"]
             if unbatched["sustained_pps"] else 0.0)
    if ratio < 1.3:
        failures.append(
            f"batching speedup at offered={top} is {ratio:.2f}x (< 1.3x): "
            f"{batched['sustained_pps']:.3f} vs "
            f"{unbatched['sustained_pps']:.3f} pps")
    # One witness per proof height reads 0.31 x here (0.24 x at full
    # scale); one path per packet read 0.60 x, which this must catch.
    fee_ratio = (batched["fee_lamports_per_packet"]
                 / unbatched["fee_lamports_per_packet"])
    if fee_ratio > 0.5:
        failures.append(
            f"batched fee/packet {batched['fee_lamports_per_packet']:.0f} is "
            f"{fee_ratio:.2f}x the unbatched "
            f"{unbatched['fee_lamports_per_packet']:.0f} (> 0.5x): has "
            f"batched delivery fallen back to per-packet proofs?")
    # Absolute floor with ample slack under the measured ~6.5 pps: the
    # sim is deterministic, so only an intentional behaviour change can
    # move this, and a halving should fail loudly.
    if batched["sustained_pps"] < 4.0:
        failures.append(
            f"batched throughput at offered={top} fell to "
            f"{batched['sustained_pps']:.3f} pps (< 4.0 floor)")
    return failures


def render_sweep(results: dict) -> str:
    """A human-readable table of the sweep (for pytest -s output)."""
    lines = [
        "Throughput sweep (sustained pps / p95 latency s / fee per packet, lamports)",
        f"{'offered':>8} | " + " | ".join(
            f"batch={b:<3}" + " " * 18 for b in results["batch_sizes"]
        ),
    ]
    by_key = {
        (p["offered_pps"], p["batch_max_packets"]): p for p in results["points"]
    }
    for offered in results["offered_loads"]:
        cells = []
        for batch in results["batch_sizes"]:
            p = by_key[(offered, batch)]
            cells.append(
                f"{p['sustained_pps']:6.3f} / {p['latency_p95_s']:7.1f} / "
                f"{p['fee_lamports_per_packet']:9.0f}"
            )
        lines.append(f"{offered:>8.2f} | " + " | ".join(cells))
    return "\n".join(lines)
