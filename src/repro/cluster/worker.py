"""The cluster worker: one process, one shard of the sweep.

A worker owns every task whose index is congruent to its worker index
modulo the worker count (round-robin sharding).  For each owned task it

* skips straight past tasks whose ``task-<index>.json`` result already
  exists (a previous incarnation finished them);
* otherwise runs the task **resumably**: the world is stepped in
  simulated-time slices, and between slices a full
  :mod:`repro.checkpoint` snapshot is written (atomically) next to the
  result file — so a worker killed mid-task restarts from its last
  checkpoint instead of from zero, and the finished record is
  byte-identical either way (that is exactly the property the
  replay-divergence audit certifies);
* writes the result atomically (tmp + rename) and deletes the
  checkpoint.

Everything that matters for correctness lives in the filesystem; the
results queue only streams small progress notifications (tuples well
under ``PIPE_BUF``, so even a worker dying mid-``put`` cannot tear the
stream).
"""

from __future__ import annotations

import json
import os
import signal
from typing import Any, Callable, Optional

from repro.checkpoint import Checkpoint, restore_world, snapshot_world
from repro.experiments.throughput import (
    ThroughputPointConfig,
    point_record,
    start_point,
)

Notify = Callable[[tuple], None]


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def result_path(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, f"task-{index}.json")


def checkpoint_path(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, f"task-{index}.ckpt")


def _die_now() -> None:
    """Fault injection: an uncatchable, mid-flight death (SIGKILL)."""
    os.kill(os.getpid(), signal.SIGKILL)


def run_throughput_point_task(task: dict, run_dir: str,
                              checkpoint_every_seconds: float,
                              collect_trace: bool,
                              notify: Notify,
                              die_after_slices: Optional[int] = None) -> dict:
    """One throughput point, checkpointed between simulated-time slices.

    Resumes from ``task-<index>.ckpt`` when one exists.  Slicing a
    ``run_until`` into pieces does not change which events run, so the
    finished record matches a straight single-process run exactly.
    """
    index = task["index"]
    config = ThroughputPointConfig(**task["config"])
    ckpt_path = checkpoint_path(run_dir, index)

    if os.path.exists(ckpt_path):
        deployment, extras = restore_world(Checkpoint.load(ckpt_path))
        engine = extras["engine"]
        notify(("resumed", index, deployment.sim.now))
    else:
        deployment, engine = start_point(config)

    sim = deployment.sim
    end_time = engine.end_time
    slices = 0
    while sim.now < end_time:
        if checkpoint_every_seconds > 0:
            slice_end = min(sim.now + checkpoint_every_seconds, end_time)
        else:
            slice_end = end_time
        sim.run_until(slice_end)
        slices += 1
        if slice_end < end_time and checkpoint_every_seconds > 0:
            snapshot_world(
                deployment, extras={"engine": engine},
                label=f"task-{index}",
            ).save(ckpt_path)
            notify(("ckpt", index, sim.now))
        if die_after_slices is not None and slices >= die_after_slices:
            _die_now()

    return point_record(config, deployment, engine,
                        collect_trace=collect_trace)


def run_state_point_task(task: dict, run_dir: str,
                         checkpoint_every_seconds: float,
                         collect_trace: bool,
                         notify: Notify,
                         die_after_slices: Optional[int] = None) -> dict:
    """One ``state-sweep`` scheduler point (batched store replay).

    The replay has no simulator world to checkpoint and runs in
    seconds-to-minutes, so resumability is at task granularity: a
    killed worker reruns the point, which is deterministic.
    """
    from repro.experiments.state import StatePointConfig, run_state_point

    return run_state_point(StatePointConfig(**task["config"]))


#: Task kinds a worker can execute.  Every runner takes
#: ``(task, run_dir, checkpoint_every_seconds, collect_trace, notify,
#: die_after_slices)`` and returns the task's JSON-ready record, which
#: ``worker_main`` leaves behind as ``task-<index>.json``.
TASK_KINDS: dict[str, Callable[..., dict]] = {
    "throughput-point": run_throughput_point_task,
    "state-point": run_state_point_task,
}


def worker_main(worker_index: int, workers: int, run_dir: str,
                queue: Any, checkpoint_every_seconds: float,
                collect_trace: bool,
                fault: Optional[dict] = None) -> None:
    """Entry point of a spawned worker process.

    ``fault`` (tests only) describes a self-inflicted SIGKILL:
    ``{"after_points": k}`` dies after finishing ``k`` tasks —
    with ``"mid_task_slices": s`` it instead dies ``s`` slices into the
    task after those ``k`` (right after that slice's checkpoint, the
    worst moment that still must lose no work).  The parent respawns a
    dead worker *without* its fault, so the shard resumes and finishes.
    """

    def notify(message: tuple) -> None:
        queue.put((worker_index,) + message)

    with open(os.path.join(run_dir, "tasks.json"), encoding="utf-8") as handle:
        tasks = json.load(handle)
    own = [task for task in tasks if task["index"] % workers == worker_index]

    completed = 0
    for task in own:
        index = task["index"]
        if os.path.exists(result_path(run_dir, index)):
            notify(("cached", index))
            completed += 1
            continue

        die_after_slices = None
        if fault is not None and completed >= int(fault.get("after_points", 0)):
            die_after_slices = fault.get("mid_task_slices")
            if die_after_slices is None:
                _die_now()

        notify(("start", index))
        record = TASK_KINDS[task["kind"]](
            task, run_dir, checkpoint_every_seconds, collect_trace,
            notify, die_after_slices)
        # Result first, then drop the task's mid-flight checkpoint: dying
        # between the two only leaves a stale file behind.
        _atomic_write_text(result_path(run_dir, index),
                           json.dumps(record, sort_keys=True))
        if os.path.exists(checkpoint_path(run_dir, index)):
            os.remove(checkpoint_path(run_dir, index))
        notify(("done", index))
        completed += 1

    notify(("exit", completed))
