"""State growth economics at scale: the ``state-sweep`` experiment.

The §V-D ablation showed sealing works for 5k packets; this sweep is
the multi-million-packet version, and it compares sealing *schedulers*
(:mod:`repro.state.scheduler`) instead of just sealing-vs-not.  One
point replays a long packet lifecycle — send commitment, receipt, ack,
commitment delete on ack return, lagged-rule seal offers — directly
against a :class:`~repro.trie.store.ProvableStore` in batched store
ops (no simulator kernel), which is what makes ≥1M logical packets
tractable in pure Python; points are independent, so the sweep shards
across cluster workers as ``state-point`` tasks.

Per point it records trajectories of live nodes, accounted live bytes,
cumulative host rent paid for those bytes, and the byte size of a
fresh membership proof (proof-size drift).  ``check_state`` enforces
the conservation properties: every scheduler — including not sealing
at all — must end at the *same root* (sealing is root-neutral), cached
aggregates must equal a full recount, the rent-aware scheduler must
keep live bytes near its budget while the plain trie grows without
bound.

``python -m repro.experiments state-sweep`` writes ``BENCH_state.json``;
``state-smoke`` is the scaled-down asserting variant CI runs.  Schema
notes live in docs/STATE.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.state.scheduler import SealScheduler, scheduler_from_name
from repro.trie.store import ProvableStore
from repro.units import RENT_LAMPORTS_PER_BYTE_YEAR

SCHEMA = "state-sweep/v1"

_SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

_RECEIPT_PREFIX = "receipts/ports/transfer/channels/channel-0"
_ACK_PREFIX = "acks/ports/transfer/channels/channel-0"
_COMMITMENT_PREFIX = "commitments/ports/transfer/channels/channel-0"


@dataclass
class StatePointConfig:
    """One scheduler's long-horizon replay."""

    scheduler: str = "eager"            # "plain" | "eager" | "lazy" | "rent-aware"
    packets: int = 1_000_000
    #: Acks return to the sender (deleting its commitment and
    #: confirming the ack for sealing) this many packets later.
    ack_lag: int = 32
    #: Logical seconds per packet — prices rent over the horizon
    #: (0.5 s/packet ≈ 2 packets/s sustained, the paper's ballpark).
    seconds_per_packet: float = 0.5
    sample_every: int = 10_000
    #: LazyScheduler batch size.
    lazy_batch: int = 256
    #: RentAwareScheduler annual budget, expressed as the live-byte
    #: level the budget prices (budget = bytes × rent rate).
    rent_budget_bytes: int = 262_144
    seed: int = 2024

    def annual_budget_lamports(self) -> int:
        return round(self.rent_budget_bytes * RENT_LAMPORTS_PER_BYTE_YEAR)


@dataclass
class StateSweepConfig:
    schedulers: tuple[str, ...] = ("plain", "eager", "lazy", "rent-aware")
    point: StatePointConfig = field(default_factory=StatePointConfig)


def _build_scheduler(config: StatePointConfig) -> Optional[SealScheduler]:
    if config.scheduler == "plain":
        return None
    if config.scheduler == "lazy":
        return scheduler_from_name("lazy", batch=config.lazy_batch)
    if config.scheduler == "rent-aware":
        return scheduler_from_name(
            "rent-aware",
            annual_budget_lamports=config.annual_budget_lamports(),
        )
    return scheduler_from_name(config.scheduler)


def run_state_point(config: StatePointConfig) -> dict:
    """Replay ``config.packets`` packet lifecycles under one scheduler.

    The op mix per sequence ``n`` mirrors ``IbcHost`` exactly:

    * ``n`` sent: commitment written;
    * ``n`` delivered: receipt written, ack written; the lagged rule
      makes receipt ``n-1`` safe, so it is *offered* to the scheduler;
    * ``n - ack_lag`` acknowledged: that commitment is deleted and the
      ack (confirmed + safe) is offered;
    * the scheduler is drained after each offer batch, sealing
      whichever offered entries its policy releases.
    """
    store = ProvableStore()
    scheduler = _build_scheduler(config)
    value = hashlib.sha256(b"state-sweep-%d" % config.seed).digest()

    def drain() -> None:
        if scheduler is None:
            return
        while True:
            due = scheduler.drain(store)
            if not due:
                return
            for prefix, sequence in due:
                store.seal_seq(prefix, sequence)

    samples: list[dict] = []
    rent_paid = 0.0
    rent_per_byte_second = RENT_LAMPORTS_PER_BYTE_YEAR / _SECONDS_PER_YEAR
    max_live_bytes = 0

    def sample(packet_index: int) -> None:
        proof = store.prove_seq(_RECEIPT_PREFIX, packet_index)
        samples.append({
            "packet": packet_index,
            "live_nodes": store.node_count(),
            "live_bytes": store.storage_bytes(),
            "sealed_count": store.trie.sealed_count(),
            "rent_paid_lamports": round(rent_paid, 3),
            "proof_bytes": len(proof.to_bytes()),
            "pending_seals": scheduler.pending_count() if scheduler else 0,
        })

    for n in range(config.packets):
        store.set_seq(_COMMITMENT_PREFIX, n, value)          # send
        store.set_seq(_RECEIPT_PREFIX, n, b"\x01")           # deliver
        store.set_seq(_ACK_PREFIX, n, value)                 # ack written
        if scheduler is not None and n >= 1:
            # Lagged rule, in-order arrival: receipt n-1 became safe.
            scheduler.offer(_RECEIPT_PREFIX, n - 1)
        acked = n - config.ack_lag
        if acked >= 0:
            store.delete_seq(_COMMITMENT_PREFIX, acked)      # ack returned
            if scheduler is not None:
                # Confirmed by the sender, and long past the lagged-rule
                # watermark (ack_lag >= 1), so safe to offer.
                scheduler.offer(_ACK_PREFIX, acked)
        drain()
        rent_paid += (store.storage_bytes() * rent_per_byte_second
                      * config.seconds_per_packet)
        max_live_bytes = max(max_live_bytes, store.storage_bytes())
        if n % config.sample_every == 0 or n == config.packets - 1:
            sample(n)

    recount = store.trie.recount_aggregates()
    cached = (store.storage_bytes(), store.node_count(),
              store.trie.sealed_count())
    return {
        "config": asdict(config),
        "scheduler": config.scheduler,
        "samples": samples,
        "final": {
            "root": store.root_hash.hex(),
            "live_nodes": store.node_count(),
            "live_bytes": store.storage_bytes(),
            "sealed_count": store.trie.sealed_count(),
            "max_live_bytes": max_live_bytes,
            "rent_paid_lamports": round(rent_paid, 3),
            "recount_ok": cached == recount,
            "offered": scheduler.offered if scheduler else 0,
            "sealed_by_scheduler": scheduler.sealed if scheduler else 0,
            "pending_seals": scheduler.pending_count() if scheduler else 0,
        },
    }


# ----------------------------------------------------------------------
# Sweep fronts (serial and cluster-sharded)
# ----------------------------------------------------------------------


def run_state_sweep(config: StateSweepConfig | None = None,
                    cluster=None) -> dict:
    """Run every scheduler's point; pass ``cluster`` (a
    :class:`repro.cluster.ClusterConfig`) to shard points across worker
    processes instead of running them serially."""
    config = config or StateSweepConfig()
    configs = [replace(config.point, scheduler=name)
               for name in config.schedulers]
    if cluster is not None:
        from repro.cluster import ClusterRunner

        records = ClusterRunner(cluster).run_points("state-point", configs)
    else:
        records = [run_state_point(point) for point in configs]
    return {
        "schema": SCHEMA,
        "seed": config.point.seed,
        "packets": config.point.packets,
        "schedulers": list(config.schedulers),
        "points": records,
    }


def run_state_smoke(seed: int = 2024, cluster=None) -> dict:
    """CI scale: 4k packets, every scheduler, tight sampling."""
    return run_state_sweep(StateSweepConfig(
        point=StatePointConfig(
            packets=4_000, sample_every=500, ack_lag=16,
            lazy_batch=64, rent_budget_bytes=98_304, seed=seed,
        ),
    ), cluster=cluster)


# ----------------------------------------------------------------------
# Checks and rendering
# ----------------------------------------------------------------------


def check_state(record: dict) -> list[str]:
    """Schema + conservation assertions for the sweep and smoke runs."""
    failures: list[str] = []
    if record.get("schema") != SCHEMA:
        failures.append(f"schema is {record.get('schema')!r}, want {SCHEMA!r}")
        return failures

    points = {point["scheduler"]: point for point in record.get("points", ())}
    if not points:
        failures.append("no sweep points recorded")
        return failures

    roots = {name: point["final"]["root"] for name, point in points.items()}
    if len(set(roots.values())) != 1:
        failures.append(f"final roots differ across schedulers: {roots}")

    for name, point in points.items():
        final = point["final"]
        if not final["recount_ok"]:
            failures.append(f"{name}: cached aggregates diverge from recount")
        if not point["samples"]:
            failures.append(f"{name}: no trajectory samples")
            continue
        last = point["samples"][-1]
        if last["packet"] != point["config"]["packets"] - 1:
            failures.append(
                f"{name}: final trajectory sample is for packet "
                f"{last['packet']}, want {point['config']['packets'] - 1}")
        if final["offered"] != final["sealed_by_scheduler"] + final["pending_seals"]:
            failures.append(
                f"{name}: scheduler counters leak: offered {final['offered']} "
                f"!= sealed {final['sealed_by_scheduler']} + pending "
                f"{final['pending_seals']}")
        if name != "plain" and final["sealed_count"] == 0:
            failures.append(f"{name}: sealed nothing over the whole horizon")

    plain = points.get("plain")
    if plain is not None:
        bytes_trajectory = [s["live_bytes"] for s in plain["samples"]]
        if any(b < a for a, b in zip(bytes_trajectory, bytes_trajectory[1:])):
            failures.append("plain: live bytes are not monotone (commitment "
                            "deletes should be dwarfed by receipt growth)")

    rent_aware = points.get("rent-aware")
    if rent_aware is not None:
        budget_bytes = rent_aware["config"]["rent_budget_bytes"]
        # Bound: budget, plus one drain batch and the unconfirmed ack
        # window that cannot be sealed yet.
        slack = budget_bytes // 2 + 65_536
        peak = rent_aware["final"]["max_live_bytes"]
        if peak > budget_bytes + slack:
            failures.append(
                f"rent-aware: live bytes peaked at {peak}, above budget "
                f"{budget_bytes} + slack {slack}")
        if plain is not None:
            if plain["final"]["live_bytes"] < 3 * rent_aware["final"]["live_bytes"]:
                failures.append(
                    "plain trie did not outgrow the rent-aware one "
                    f"({plain['final']['live_bytes']} vs "
                    f"{rent_aware['final']['live_bytes']}): horizon too short?")
            if plain["final"]["rent_paid_lamports"] <= \
                    rent_aware["final"]["rent_paid_lamports"]:
                failures.append("plain trie paid no more rent than rent-aware")

    eager = points.get("eager")
    if eager is not None and plain is not None:
        if eager["samples"][-1]["proof_bytes"] > plain["samples"][-1]["proof_bytes"]:
            failures.append(
                "eager sealing made fresh-receipt proofs larger than the "
                "plain trie's")
    return failures


def render_state(record: dict) -> str:
    lines = [f"state sweep ({record['packets']} packets per scheduler)",
             f"  {'scheduler':<12} {'live bytes':>12} {'peak bytes':>12} "
             f"{'sealed':>9} {'rent (SOL)':>11} {'proof B':>8}"]
    for point in record["points"]:
        final = point["final"]
        proof_bytes = point["samples"][-1]["proof_bytes"] if point["samples"] else 0
        lines.append(
            f"  {point['scheduler']:<12} {final['live_bytes']:>12,} "
            f"{final['max_live_bytes']:>12,} {final['sealed_count']:>9,} "
            f"{final['rent_paid_lamports'] / 1e9:>11.4f} {proof_bytes:>8}")
    roots = {point["final"]["root"] for point in record["points"]}
    lines.append(f"  root fingerprint{'s' if len(roots) > 1 else ''}: "
                 + ", ".join(sorted(r[:16] for r in roots))
                 + (" (AGREE)" if len(roots) == 1 else " (DIVERGED)"))
    return "\n".join(lines)
