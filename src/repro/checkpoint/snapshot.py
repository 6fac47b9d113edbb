"""Versioned world checkpoints: manifest + payload, audit on restore.

A checkpoint is two parts:

* a JSON **manifest** — schema and codec versions, the deployment
  seed and a fingerprint of its config, the simulation clock and event
  counters, and the store **root hashes** of every chain at snapshot
  time;
* the **payload** — the full object graph (deployment plus any extras
  such as a workload engine), pickled by :mod:`repro.checkpoint.codec`.

Restoring re-derives the roots and counters from the reconstructed
world and refuses to hand it back if anything disagrees with the
manifest: a checkpoint that fails its own audit is worthless as a
replay oracle.  File layout (``save``/``load``)::

    b"RPCK" | u8 schema | u32 manifest_len | manifest JSON | payload

``docs/CHECKPOINT.md`` documents format evolution rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.checkpoint.codec import (
    CODEC_VERSION,
    CheckpointError,
    dumps_world,
    loads_world,
)
from repro.checkpoint.registry import validate_event_queue
from repro.ids import mint_states, rewind_mints

#: Bump on any manifest/layout change; loaders reject unknown versions.
#: 2: the manifest carries no interpreter tag.
SCHEMA_VERSION = 2

_MAGIC = b"RPCK"
#: magic | u8 schema | u32 manifest length
_HEADER_BYTES = 9


def config_fingerprint(config: Any) -> str:
    """Stable digest of a deployment config (nested dataclasses).

    ``repr`` of the dataclass tree is deterministic for the plain
    value types configs hold; classes (e.g. ``scheme_factory``) are
    rendered by qualified name through their default repr.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def world_roots(deployment) -> dict[str, str]:
    """The commitment roots that pin a world's state: the guest's and
    the counterparty's store, or a fabric's every chain's by name."""
    if hasattr(deployment, "guests"):
        stores = {name: guest.contract.store
                  for name, guest in deployment.guests.items()}
        stores.update({name: cp.ibc.store
                       for name, cp in deployment.counterparties.items()})
    else:
        stores = {"guest_store": deployment.contract.store,
                  "counterparty_store": deployment.counterparty.ibc.store}
    return {name: bytes(store.root_hash).hex() for name, store in stores.items()}


@dataclass(frozen=True)
class CheckpointManifest:
    """Everything needed to audit a payload before trusting it."""

    schema_version: int
    codec_version: int
    label: str
    seed: int
    config_hash: str
    sim_now: float
    events_dispatched: int
    events_scheduled: int
    pending_events: int
    store_roots: dict[str, str] = field(default_factory=dict)
    extras: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        record = asdict(self)
        record["extras"] = list(self.extras)
        return record

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "CheckpointManifest":
        record = dict(record)
        record["extras"] = tuple(record.get("extras", ()))
        return cls(**record)


@dataclass(frozen=True)
class Checkpoint:
    """One serialized world: audit-ready manifest plus payload bytes."""

    manifest: CheckpointManifest
    payload: bytes

    # -- binary container ------------------------------------------------

    def to_bytes(self) -> bytes:
        manifest_bytes = json.dumps(
            self.manifest.to_json(), sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        return (
            _MAGIC
            + bytes([SCHEMA_VERSION])
            + len(manifest_bytes).to_bytes(4, "big")
            + manifest_bytes
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        if data[:4] != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        if len(data) < _HEADER_BYTES:
            raise CheckpointError(
                f"checkpoint cut inside its {_HEADER_BYTES}-byte header "
                f"({len(data)} bytes)"
            )
        if data[4] != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {data[4]} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        manifest_end = _HEADER_BYTES + int.from_bytes(data[5:_HEADER_BYTES], "big")
        if len(data) < manifest_end:
            raise CheckpointError(
                f"checkpoint cut inside its manifest ({len(data)} bytes, "
                f"manifest ends at {manifest_end})"
            )
        try:
            manifest = CheckpointManifest.from_json(
                json.loads(data[_HEADER_BYTES:manifest_end].decode("utf-8")),
            )
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
        return cls(manifest=manifest, payload=data[manifest_end:])

    def save(self, path: str) -> None:
        """Atomic write (tmp + rename): a crash never leaves a torn file."""
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(self.to_bytes())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------


def snapshot_world(deployment, extras: Optional[dict[str, Any]] = None,
                   label: str = "") -> Checkpoint:
    """Serialize a deployment (and companions like a workload engine).

    Validates the event queue against the callback registry first, then
    captures the whole graph in one pickle so every shared reference —
    the one relayer, the one rng — stays shared on restore.
    """
    validate_event_queue(deployment.sim)
    extras = dict(extras or {})
    payload = dumps_world({
        "deployment": deployment,
        "extras": extras,
        # Process-global id mints (tx/bundle/buffer/event/span ids) are
        # part of the world's future: replay must mint identical ids.
        "mints": mint_states(),
    })
    sim = deployment.sim
    manifest = CheckpointManifest(
        schema_version=SCHEMA_VERSION,
        codec_version=CODEC_VERSION,
        label=label,
        seed=deployment.config.seed,
        config_hash=config_fingerprint(deployment.config),
        sim_now=sim.now,
        events_dispatched=sim.dispatched_events(),
        events_scheduled=sim._sequence,
        pending_events=sim.pending_events(),
        store_roots=world_roots(deployment),
        extras=tuple(sorted(extras)),
    )
    return Checkpoint(manifest=manifest, payload=payload)


def restore_world(checkpoint: Checkpoint, audit: bool = True):
    """Reconstruct ``(deployment, extras)`` from a checkpoint.

    With ``audit`` (the default), the restored world is checked against
    the manifest — clock, event counters and store roots must all
    match — before it is returned.
    """
    manifest = checkpoint.manifest
    if manifest.schema_version != SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported manifest schema {manifest.schema_version}"
        )
    if manifest.codec_version != CODEC_VERSION:
        raise CheckpointError(
            f"payload written by codec {manifest.codec_version}; this "
            f"build reads codec {CODEC_VERSION} (docs/CHECKPOINT.md, "
            "versioning rules)"
        )
    graph = loads_world(checkpoint.payload)
    deployment = graph["deployment"]
    extras = graph["extras"]
    # Rewind the process-global id mints to their snapshot positions so
    # the replay mints the same tx/span/bundle ids the original run
    # did.  This is why only one live world per process is supported —
    # see repro.ids and docs/CHECKPOINT.md.
    rewind_mints(graph.get("mints", {}))
    if audit:
        audit_restored(deployment, manifest)
    return deployment, extras


def audit_restored(deployment, manifest: CheckpointManifest) -> None:
    """Raise unless the restored world matches its manifest."""
    sim = deployment.sim
    observed = {
        "sim_now": sim.now,
        "events_dispatched": sim.dispatched_events(),
        "events_scheduled": sim._sequence,
        "pending_events": sim.pending_events(),
        "config_hash": config_fingerprint(deployment.config),
        "store_roots": world_roots(deployment),
    }
    expected = {
        "sim_now": manifest.sim_now,
        "events_dispatched": manifest.events_dispatched,
        "events_scheduled": manifest.events_scheduled,
        "pending_events": manifest.pending_events,
        "config_hash": manifest.config_hash,
        "store_roots": dict(manifest.store_roots),
    }
    mismatches = [
        f"{key}: manifest={expected[key]!r} restored={observed[key]!r}"
        for key in expected if expected[key] != observed[key]
    ]
    if mismatches:
        raise CheckpointError(
            "restored world failed its manifest audit:\n  - "
            + "\n  - ".join(mismatches)
        )
