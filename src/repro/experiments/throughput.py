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

from dataclasses import asdict, dataclass, replace

from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
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


def build_linked_deployment(config: ThroughputPointConfig):
    """A linked deployment plus its open channel list."""
    dep = Deployment(DeploymentConfig(
        seed=config.seed,
        guest=GuestConfig(delta_seconds=config.delta_seconds, min_stake_lamports=1),
        host=HostConfig(block_tx_limit=config.block_tx_limit),
        relayer=RelayerConfig(
            batch_max_packets=config.batch_max_packets,
            batch_flush_seconds=config.batch_flush_seconds,
        ),
        profiles=simple_profiles(4),
        tracing=True,
    ))
    # The first call opens the connection too; each further one adds a
    # channel over it.
    channels = [dep.establish_link() for _ in range(config.channels)]
    return dep, channels


def run_throughput_point(config: ThroughputPointConfig, *,
                         collect_trace: bool = False) -> dict:
    """Measure one sweep point; returns a JSON-ready record.

    With ``collect_trace`` the record additionally carries the full
    ``TraceReport`` JSON under ``"trace"`` (the cluster runner uses this
    to merge per-shard traces); the default record is unchanged either
    way, so benchmark outputs stay byte-identical.
    """
    dep, channels = build_linked_deployment(config)
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode=config.mode,
        offered_pps=config.offered_pps,
        duration=config.duration,
        drain_seconds=config.drain_seconds,
    ))
    engine.run()
    return point_record(config, dep, engine, collect_trace=collect_trace)


def point_record(config: ThroughputPointConfig, dep, engine, *,
                 collect_trace: bool = False) -> dict:
    """The JSON record for a *finished* point.

    Shared by the serial path above and the cluster workers' resumable
    path (:mod:`repro.cluster.worker`), so a point measured either way
    produces byte-identical rows.
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


def sweep_point_configs(
    seed: int = 101,
    offered_loads: tuple[float, ...] = (2.0, 8.0, 16.0),
    batch_sizes: tuple[int, ...] = (1, 32),
    duration: float = 300.0,
    base: ThroughputPointConfig = ThroughputPointConfig(),
) -> list[ThroughputPointConfig]:
    """The sweep's point configs, in canonical (load-major) order.

    The serial sweep and the cluster runner both build their work list
    here, so a sharded sweep measures exactly the points a serial one
    would — in the same output order.
    """
    configs = []
    for offered in offered_loads:
        for batch in batch_sizes:
            configs.append(replace(
                base, seed=seed, offered_pps=offered,
                batch_max_packets=batch, duration=duration,
            ))
    return configs


def run_throughput_sweep(
    seed: int = 101,
    offered_loads: tuple[float, ...] = (2.0, 8.0, 16.0),
    batch_sizes: tuple[int, ...] = (1, 32),
    duration: float = 300.0,
    base: ThroughputPointConfig = ThroughputPointConfig(),
) -> dict:
    """The full sweep: every offered load under every batching config.

    Same seed per column, so a batched and an unbatched point at the
    same load see identical traffic, congestion and validator draws.
    """
    points = [
        run_throughput_point(config)
        for config in sweep_point_configs(
            seed, offered_loads, batch_sizes, duration, base)
    ]
    return {
        "experiment": "throughput_sweep",
        "seed": seed,
        "offered_loads": list(offered_loads),
        "batch_sizes": list(batch_sizes),
        "duration_s": duration,
        "points": points,
    }


#: The CI smoke sweep's shape — shared with the cluster smoke path so
#: both measure the same points.
SMOKE_OFFERED_LOADS: tuple[float, ...] = (4.0, 12.0)
SMOKE_BATCH_SIZES: tuple[int, ...] = (1, 16)
SMOKE_DURATION = 60.0


def smoke_base_config() -> ThroughputPointConfig:
    return ThroughputPointConfig(duration=SMOKE_DURATION, drain_seconds=1_200.0)


def run_throughput_smoke(seed: int = 101) -> dict:
    """A scaled-down sweep for CI: two loads, one minute of sending.

    Small enough to run on every push, large enough that the batching
    win is already visible at the saturated point.
    """
    return run_throughput_sweep(
        seed=seed,
        offered_loads=SMOKE_OFFERED_LOADS,
        batch_sizes=SMOKE_BATCH_SIZES,
        duration=SMOKE_DURATION,
        base=smoke_base_config(),
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
    if batched["fee_lamports_per_packet"] >= unbatched["fee_lamports_per_packet"]:
        failures.append(
            f"batched fee/packet {batched['fee_lamports_per_packet']:.0f} "
            f"not below unbatched "
            f"{unbatched['fee_lamports_per_packet']:.0f}")
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
