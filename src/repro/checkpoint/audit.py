"""Replay-divergence audit: the checkpoint layer's differential oracle.

The strongest statement a checkpoint can make is *bit-identical
replay*: run a live workload, snapshot mid-flight, let the original
run straight through, then restore the snapshot and replay — every
store root, event counter and trace histogram must come out identical.
A divergence means some state escaped the snapshot (or some actor
consults process state outside the world), which is exactly the class
of bug that would silently poison sharded sweeps.

``python -m repro.experiments replay-audit`` runs this across seeds;
the cluster smoke job runs one audit on every push.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.checkpoint.codec import CheckpointError
from repro.checkpoint.snapshot import Checkpoint, restore_world, snapshot_world, world_roots
from repro.experiments.throughput import ThroughputPointConfig, start_point
from repro.workload import WorkloadEngine


@dataclass(frozen=True)
class ReplayAuditConfig:
    """One audit run: a workload, a snapshot point, a finish line."""

    seed: int = 401
    offered_pps: float = 8.0
    #: Long enough that the replay covers over ten thousand events even
    #: though the host chain spends none on the idle drain and a relayer
    #: none on packet events.
    duration: float = 450.0
    drain_seconds: float = 1_200.0
    channels: int = 2
    batch_max_packets: int = 8
    block_tx_limit: int = 8
    #: Snapshot once this many events have dispatched (the workload must
    #: still be mid-flight here for the audit to mean anything).
    snapshot_after_events: int = 4_000


#: What the audited world's payload may weigh: seeds 401-403 read
#: 1.4-1.9 MB mid-flight, and 11.9-12.3 MB while an allocated account
#: was a blob of its size (docs/PERFORMANCE.md, "An account is its
#: size"); the ceiling is how one coming back is noticed.
CHECKPOINT_BYTES_CEILING = 3_000_000


def _fingerprint(deployment, engine: WorkloadEngine) -> dict[str, Any]:
    """Everything that must match between straight-through and replay.

    Span ids are minted from a process-global counter, but restore
    rewinds every registered mint (:mod:`repro.ids`) to its snapshot
    position — so ids are part of the contract and part of the digest.
    """
    sim = deployment.sim
    # Read first: on a sleeping chain the read settles the idle-slot
    # counters the report below carries.
    host_slot = deployment.host.slot
    trace = deployment.trace_report()
    spans = sorted(
        repr((record.span_id, record.name, record.key, record.actor,
              record.start, record.end, sorted(record.attrs.items())))
        for record in trace.spans
    )
    histograms = {name: list(values) for name, values in sorted(trace.histograms.items())}
    return {
        "sim_now": sim.now,
        "events_dispatched": sim.dispatched_events(),
        "events_scheduled": sim._sequence,
        "pending_events": sim.pending_events(),
        "store_roots": world_roots(deployment),
        "host_slot": host_slot,
        "counterparty_height": deployment.counterparty.height,
        "counters": dict(sorted(trace.counters.items())),
        "histogram_digest": hashlib.sha256(
            repr(histograms).encode("utf-8")).hexdigest(),
        "span_digest": hashlib.sha256(
            "\n".join(spans).encode("utf-8")).hexdigest(),
        "workload": {
            "sent": engine.sent,
            "committed": engine.committed,
            "delivered": engine.delivered,
            "send_failures": engine.send_failures,
            "outstanding": engine.outstanding(),
            "latency_digest": hashlib.sha256(
                repr(engine.latencies).encode("utf-8")).hexdigest(),
        },
    }


def diff_fingerprints(a: dict[str, Any], b: dict[str, Any],
                      prefix: str = "") -> list[str]:
    """Every field that differs between two fingerprints."""
    keys = sorted(set(a) | set(b))
    problems = []
    for key in keys:
        left, right = a.get(key), b.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            problems.extend(diff_fingerprints(left, right, f"{prefix}{key}."))
        elif left != right:
            problems.append(f"{prefix}{key}: {left!r} != {right!r}")
    return problems


def audit_checkpoint(config: ReplayAuditConfig = ReplayAuditConfig()
                     ) -> tuple[Checkpoint, dict[str, Any]]:
    """Run the workload to the snapshot point, checkpoint it, and let
    the original world run straight through to the finish line.

    Returns the checkpoint (round-tripped through its binary container,
    so the audit covers the file format too) and the straight-through
    fingerprint a replay of it must reproduce.
    """
    # The workload is a throughput point: every audit field but the
    # snapshot position is one of its fields, by name.
    point = asdict(config)
    del point["snapshot_after_events"]
    deployment, engine = start_point(ThroughputPointConfig(**point))
    sim = deployment.sim
    end_time = engine.end_time

    while sim.dispatched_events() < config.snapshot_after_events:
        # Housekeeping (block production, cranker ticks) self-reschedules
        # forever, so the queue never empties — passing the finish line
        # is what "the workload drained first" actually looks like.
        if not sim.step() or sim.now > end_time:
            raise CheckpointError(
                f"workload drained after {sim.dispatched_events()} events, "
                f"before the requested snapshot point "
                f"{config.snapshot_after_events}"
            )
    checkpoint = Checkpoint.from_bytes(
        snapshot_world(
            deployment, extras={"engine": engine},
            label=f"replay-audit-seed-{config.seed}",
        ).to_bytes()
    )
    sim.run_until(end_time)
    return checkpoint, _fingerprint(deployment, engine)


def replay_checkpoint(checkpoint: Checkpoint) -> dict[str, Any]:
    """Restore an audit checkpoint (manifest-audited) and run the same
    simulated interval on the reconstructed world; its fingerprint."""
    restored, extras = restore_world(checkpoint)
    engine = extras["engine"]
    restored.sim.run_until(engine.end_time)
    return _fingerprint(restored, engine)


def run_replay_audit(config: ReplayAuditConfig = ReplayAuditConfig()) -> dict[str, Any]:
    """Snapshot → straight-through vs. restore → replay; compare.

    Returns a JSON-ready record; ``record["match"]`` is the verdict and
    ``record["divergences"]`` names every field that differed.
    """
    checkpoint, straight = audit_checkpoint(config)
    divergences = diff_fingerprints(straight, replay_checkpoint(checkpoint))
    snapshot_events = checkpoint.manifest.events_dispatched
    return {
        "config": asdict(config),
        "snapshot_events": snapshot_events,
        "events_total": straight["events_dispatched"],
        "events_replayed": straight["events_dispatched"] - snapshot_events,
        "checkpoint_bytes": len(checkpoint.payload),
        "manifest": checkpoint.manifest.to_json(),
        "match": not divergences,
        "divergences": divergences,
        "straight_fingerprint": straight,
    }


def run_replay_audits(seeds: tuple[int, ...] = (401, 402, 403),
                      base: ReplayAuditConfig = ReplayAuditConfig()) -> dict[str, Any]:
    """The acceptance-shaped audit: several seeds, one verdict."""
    audits = [run_replay_audit(replace(base, seed=seed)) for seed in seeds]
    return {
        "experiment": "replay_audit",
        "seeds": list(seeds),
        "match": all(audit["match"] for audit in audits),
        "audits": audits,
    }


def check_replay_audits(audit: dict[str, Any]) -> list[str]:
    """Every field that differed between straight-through and replay,
    and every checkpoint over :data:`CHECKPOINT_BYTES_CEILING`."""
    problems = []
    for record in audit["audits"]:
        seed = record["config"]["seed"]
        problems += [f"seed {seed}: {divergence}"
                     for divergence in record["divergences"]]
        if record["checkpoint_bytes"] > CHECKPOINT_BYTES_CEILING:
            problems.append(
                f"seed {seed}: checkpoint of {record['checkpoint_bytes']} "
                f"bytes exceeds {CHECKPOINT_BYTES_CEILING}")
    return problems


def render_replay_audits(audit: dict[str, Any]) -> str:
    """One verdict line per seed."""
    return "\n".join(
        f"replay-audit seed {record['config']['seed']}: "
        f"{'ok' if record['match'] else 'DIVERGED'} "
        f"({record['events_replayed']} events replayed, "
        f"checkpoint {record['checkpoint_bytes'] / 1e6:.1f} MB)"
        for record in audit["audits"])
