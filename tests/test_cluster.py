"""The sharded cluster runner: identity with serial, crash recovery.

The contract under test: however a sweep is sharded — and however many
times its workers are killed and respawned mid-task — the merged
records are byte-identical to a serial single-process run.  The
mid-task resume path goes through a full :mod:`repro.checkpoint` world
restore, so these are also end-to-end tests of checkpointing under a
process boundary.

Every case goes through the one sweep function:
``run_throughput_sweep(cluster=None)`` is the serial reference,
``run_throughput_sweep(cluster=ClusterConfig(...))`` the sharded run.
"""

import json
import os

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterRunner,
    WorkerFault,
)
from repro.experiments.throughput import (
    ThroughputPointConfig,
    run_throughput_sweep,
)

#: One small two-point sweep shared by the identity/crash tests — large
#: enough to cross several checkpoint slices, small enough for CI.
SWEEP = dict(
    seed=11,
    offered_loads=(4.0,),
    batch_sizes=(1, 16),
    duration=30.0,
    base=ThroughputPointConfig(duration=30.0, drain_seconds=600.0),
)


def canonical(points):
    return json.dumps(points, sort_keys=True)


def sharded(events=None, **cluster):
    """The SWEEP, sharded; progress event kinds land in ``events``."""
    if events is not None:
        cluster["on_progress"] = lambda worker, kind, *rest: events.add(kind)
    return run_throughput_sweep(**SWEEP, cluster=ClusterConfig(**cluster))


@pytest.fixture(scope="module")
def serial():
    return run_throughput_sweep(**SWEEP)


@pytest.fixture(scope="module")
def serial_points(serial):
    return serial["points"]


class TestClusterIdentity:
    def test_sharded_sweep_matches_serial(self, serial, tmp_path):
        results = sharded(workers=2, run_dir=str(tmp_path / "run"),
                          checkpoint_every_seconds=200.0)
        assert results.pop("cluster")["workers"] == 2
        # Apart from that decoration it *is* the serial result.
        assert canonical(results) == canonical(serial)

    def test_resume_skips_finished_tasks(self, serial_points, tmp_path):
        cluster = dict(workers=2, run_dir=str(tmp_path / "run"),
                       checkpoint_every_seconds=0.0)
        first = sharded(**cluster)
        kinds: set = set()
        again = sharded(kinds, **cluster)
        assert canonical(again["points"]) == canonical(first["points"])
        # Nothing re-ran: every task was served from its result file.
        assert "cached" in kinds
        assert "start" not in kinds

    def test_run_dir_refuses_a_different_sweep(self, tmp_path):
        cluster = ClusterConfig(workers=2, run_dir=str(tmp_path / "run"),
                                checkpoint_every_seconds=0.0)
        run_throughput_sweep(**SWEEP, cluster=cluster)
        with pytest.raises(ClusterError, match="different"):
            run_throughput_sweep(**{**SWEEP, "seed": 99}, cluster=cluster)

    def test_task_indices_must_be_canonical(self, tmp_path):
        runner = ClusterRunner(ClusterConfig(workers=1,
                                             run_dir=str(tmp_path / "run")))
        with pytest.raises(ClusterError, match="indices"):
            runner.run_tasks([{"index": 3, "kind": "throughput-point",
                               "config": {}}])


class TestCrashRecovery:
    def test_sigkilled_worker_resumes_mid_task(self, serial_points, tmp_path):
        """Kill one of four workers two slices into its first task —
        right after a checkpoint, the worst moment — and require the
        merged results to be byte-identical to the serial run."""
        kinds: set = set()
        results = sharded(
            kinds, workers=4, run_dir=str(tmp_path / "run"),
            checkpoint_every_seconds=100.0,
            faults=(WorkerFault(worker_index=0, after_points=0,
                                mid_task_slices=2),),
        )
        assert canonical(results["points"]) == canonical(serial_points)
        assert "respawn" in kinds  # the worker really died...
        assert "resumed" in kinds  # ...and really restored a checkpoint

    def test_killed_between_tasks_recovers_too(self, serial_points, tmp_path):
        kinds: set = set()
        results = sharded(
            kinds, workers=2, run_dir=str(tmp_path / "run"),
            checkpoint_every_seconds=0.0,
            faults=(WorkerFault(worker_index=1, after_points=0),),
        )
        assert canonical(results["points"]) == canonical(serial_points)
        assert "respawn" in kinds

    def test_unrecoverable_worker_aborts_the_run(self, tmp_path):
        # max_restarts=0: the first death is final.  The fault stays
        # armed only for the first incarnation, but with no respawn
        # budget the runner must give up rather than spin.
        with pytest.raises(ClusterError, match="died"):
            sharded(
                workers=2, run_dir=str(tmp_path / "run"),
                checkpoint_every_seconds=0.0, max_restarts=0,
                faults=(WorkerFault(worker_index=0, after_points=0),),
            )


class TestMergedTraces:
    def test_collect_traces_merges_without_touching_rows(self, serial_points,
                                                         tmp_path):
        results = sharded(workers=2, run_dir=str(tmp_path / "run"),
                          checkpoint_every_seconds=0.0, collect_traces=True)
        assert canonical(results["points"]) == canonical(serial_points)
        merged = results["merged_trace"]
        sent = merged["counters"]["workload.packets.sent"]
        assert sent == sum(point["sent"] for point in results["points"])


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs at least 4 cores")
class TestSpeedup:
    def test_four_workers_beat_serial(self, tmp_path):
        import time

        kw = dict(
            seed=12,
            offered_loads=(4.0, 8.0),
            batch_sizes=(1, 16),
            duration=40.0,
            base=ThroughputPointConfig(duration=40.0, drain_seconds=600.0),
        )
        t0 = time.monotonic()
        serial = run_throughput_sweep(**kw)
        serial_s = time.monotonic() - t0
        t1 = time.monotonic()
        clustered = run_throughput_sweep(**kw, cluster=ClusterConfig(
            workers=4, run_dir=str(tmp_path / "run"),
            checkpoint_every_seconds=0.0,
        ))
        cluster_s = time.monotonic() - t1
        assert canonical(clustered["points"]) == canonical(serial["points"])
        # Four workers on four points: demand a 2.5x wall-clock win
        # (spawn + import overhead eats the rest).
        assert cluster_s < serial_s / 2.5, (
            f"cluster {cluster_s:.1f}s vs serial {serial_s:.1f}s")
