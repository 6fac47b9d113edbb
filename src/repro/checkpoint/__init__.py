"""Deterministic world checkpointing (``docs/CHECKPOINT.md``).

Snapshot a live deployment — clock, event queue with its in-flight
continuations, rng streams, both chains' tries, relayer/cranker queues,
workload progress — into a versioned, manifest-audited blob; restore
it and replay with bit-identical results.  The replay-divergence audit
(:mod:`repro.checkpoint.audit`) is the differential oracle that keeps
the sharded cluster runner (:mod:`repro.cluster`) trustworthy.
"""

from repro.checkpoint.codec import (
    CODEC_VERSION,
    CheckpointError,
    dumps_world,
    loads_world,
)
from repro.checkpoint.registry import (
    register_actor,
    register_namespace,
    validate_event_queue,
    validation_errors,
)
from repro.checkpoint.snapshot import (
    SCHEMA_VERSION,
    Checkpoint,
    CheckpointManifest,
    audit_restored,
    config_fingerprint,
    restore_world,
    snapshot_world,
    world_roots,
)

__all__ = [
    "CODEC_VERSION",
    "SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManifest",
    "audit_restored",
    "config_fingerprint",
    "dumps_world",
    "loads_world",
    "register_actor",
    "register_namespace",
    "restore_world",
    "snapshot_world",
    "validate_event_queue",
    "validation_errors",
    "world_roots",
]
