"""The replay-divergence audit: restore + replay must be bit-identical.

This is the acceptance test for the whole checkpoint subsystem: a live
batched workload runs thousands of events, a snapshot is taken
mid-flight (round-tripped through the binary container), and the
restored world replays more than ten thousand events to the same finish
line as the original — store roots, event counters, trace histograms,
span streams and workload latencies must all come out identical, across
multiple seeds.
"""

import importlib
import io
import pickle

import pytest

from repro.checkpoint.audit import (
    CHECKPOINT_BYTES_CEILING,
    ReplayAuditConfig,
    audit_checkpoint,
    check_replay_audits,
    replay_checkpoint,
    run_replay_audit,
)


class NameRecorder(pickle.Unpickler):
    """Loads a payload, noting every global it names."""

    def __init__(self, payload: bytes) -> None:
        super().__init__(io.BytesIO(payload))
        self.names: set[tuple[str, str]] = set()

    def find_class(self, module: str, name: str):
        self.names.add((module, name))
        return super().find_class(module, name)


class TestReplayAudit:
    @pytest.mark.parametrize("seed", [401, 402, 403])
    def test_replay_is_bit_identical(self, seed):
        record = run_replay_audit(ReplayAuditConfig(seed=seed))
        assert record["divergences"] == []
        assert record["match"] is True
        # The audit must actually exercise scale: a trivial replay
        # proves nothing about in-flight continuations.
        assert record["events_replayed"] >= 10_000
        assert record["snapshot_events"] >= 4_000

    def test_the_audit_gates_its_own_checkpoint_size(self):
        """A mid-flight world weighs 1.5 MB; with a blob per allocated
        account it weighed 12.0, and the check is what would say so."""
        record = run_replay_audit(ReplayAuditConfig(seed=401))
        assert 0 < record["checkpoint_bytes"] <= CHECKPOINT_BYTES_CEILING
        assert check_replay_audits({"audits": [record]}) == []
        doctored = dict(record, checkpoint_bytes=record["checkpoint_bytes"]
                        + 10 * 1024 * 1024)
        (failure,) = check_replay_audits({"audits": [doctored]})
        assert failure.startswith("seed 401: checkpoint of ")

    def test_snapshot_point_past_the_workload_fails_loudly(self):
        from repro.checkpoint import CheckpointError

        tiny = ReplayAuditConfig(seed=401, offered_pps=1.0, duration=5.0,
                                 drain_seconds=60.0,
                                 snapshot_after_events=10_000_000)
        with pytest.raises(CheckpointError, match="drained"):
            run_replay_audit(tiny)


def test_the_payload_names_only_module_level_attributes():
    """What a checkpoint carries is data and names: no code object, no
    interpreter internals, no codec helper — so any Python that imports
    the source loads it — and the replay is still bit-identical."""
    checkpoint, straight = audit_checkpoint(ReplayAuditConfig(seed=401))
    recorder = NameRecorder(checkpoint.payload)
    recorder.load()
    modules = {module for module, _ in recorder.names}
    assert not modules & {"marshal", "types", "repro.checkpoint.codec"}
    for module, name in sorted(recorder.names):
        assert "<" not in name, (module, name)
        target = importlib.import_module(module)
        for part in name.split("."):
            target = getattr(target, part)
    assert replay_checkpoint(checkpoint) == straight
