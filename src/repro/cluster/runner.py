"""The cluster runner: shard a task list across worker processes.

A generic runner: it knows task dicts and worker processes, nothing of
any experiment (the sweeps that shard — ``run_throughput_sweep`` and
``run_state_sweep`` with ``cluster=`` — import it, never the reverse;
task kinds are resolved in :mod:`repro.cluster.worker`).

``ClusterRunner`` takes a task list (one entry per experiment point),
writes it to the run directory, and spawns ``workers`` processes that
shard it round-robin.  Correctness is filesystem-first:

* every finished point is one atomic ``task-<index>.json``;
* every in-flight point keeps an atomic ``task-<index>.ckpt`` world
  checkpoint (:mod:`repro.checkpoint`), refreshed between slices;
* a worker that dies (crash, OOM, SIGKILL) is respawned and *resumes*:
  finished tasks are skipped via their result files, the interrupted
  task restores its checkpoint — the merged results are byte-identical
  to an uninterrupted run.

The results queue streams small progress tuples for observability; it
carries no state the merge depends on.  Merging reads the result files
in task-index order, so output order is independent of worker count and
scheduling.

Worlds are simulated in *separate processes* — never interleaved inside
one — because restore rewinds the process-global id mints
(:mod:`repro.ids`).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.worker import result_path, worker_main
from repro.errors import ReproError


class ClusterError(ReproError):
    """A sharded run could not complete."""


@dataclass(frozen=True)
class WorkerFault:
    """Test-only: make one worker SIGKILL itself (never re-armed on
    respawn).  ``after_points`` counts finished tasks before death;
    ``mid_task_slices`` instead dies that many slices into the next
    task, right after its checkpoint."""

    worker_index: int
    after_points: int = 0
    mid_task_slices: Optional[int] = None


@dataclass
class ClusterConfig:
    """How to shard: worker count, run directory, checkpoint cadence."""

    #: Worker processes; ``None`` means ``os.cpu_count()``.
    workers: Optional[int] = None
    #: Where task files, checkpoints and results live.  A directory that
    #: already holds a *matching* ``tasks.json`` is resumed; one holding
    #: a different task list is refused.
    run_dir: str = "results/cluster-run"
    #: Simulated seconds between mid-task checkpoints (0 disables them;
    #: completed-task resume still works through the result files).
    checkpoint_every_seconds: float = 300.0
    #: Ship each point's full TraceReport home for a merged report.
    collect_traces: bool = False
    #: Respawn budget per worker before the run is abandoned.
    max_restarts: int = 3
    #: Injected faults (tests).
    faults: tuple[WorkerFault, ...] = ()
    #: Progress callback ``(worker_index, kind, *details)``; default
    #: prints one line per event.
    on_progress: Any = field(default=None, repr=False)


class ClusterRunner:
    """Run a task list across worker processes; merge by task index."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.workers = self.config.workers or os.cpu_count() or 1
        self.events: list[tuple] = []

    # -- progress --------------------------------------------------------

    def _progress(self, worker_index: int, message: tuple) -> None:
        event = (worker_index,) + tuple(message)
        self.events.append(event)
        if self.config.on_progress is not None:
            self.config.on_progress(*event)

    # -- task files ------------------------------------------------------

    def _prepare_run_dir(self, tasks: list[dict]) -> None:
        os.makedirs(self.config.run_dir, exist_ok=True)
        tasks_path = os.path.join(self.config.run_dir, "tasks.json")
        serialized = json.dumps(tasks, sort_keys=True, indent=1)
        if os.path.exists(tasks_path):
            with open(tasks_path, encoding="utf-8") as handle:
                existing = handle.read()
            if existing != serialized:
                raise ClusterError(
                    f"run dir {self.config.run_dir!r} holds a different "
                    "task list; point the cluster at a fresh directory "
                    "(or delete the old one) instead of mixing sweeps"
                )
            return  # same sweep: resume, reusing finished task files
        tmp = f"{tasks_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(serialized)
        os.replace(tmp, tasks_path)

    # -- supervision -----------------------------------------------------

    def run_points(self, kind: str, configs: list) -> list[dict]:
        """One ``kind`` task per config dataclass (a sweep's points, in
        order); returns their records in the same order."""
        return self.run_tasks([
            {"index": index, "kind": kind,
             "config": dataclasses.asdict(config)}
            for index, config in enumerate(configs)
        ])

    def run_tasks(self, tasks: list[dict]) -> list[dict]:
        """Execute ``tasks``; return their records in task-index order."""
        if not tasks:
            return []
        for expected, task in enumerate(tasks):
            if task.get("index") != expected:
                raise ClusterError("task indices must be 0..n-1 in order")
        self._prepare_run_dir(tasks)

        context = multiprocessing.get_context("spawn")
        queue: Any = context.Queue()
        faults: dict[int, dict] = {
            fault.worker_index: {
                "after_points": fault.after_points,
                "mid_task_slices": fault.mid_task_slices,
            }
            for fault in self.config.faults
        }

        def spawn(worker_index: int, armed: bool):
            process = context.Process(
                target=worker_main,
                args=(worker_index, self.workers, self.config.run_dir, queue,
                      self.config.checkpoint_every_seconds,
                      self.config.collect_traces,
                      faults.get(worker_index) if armed else None),
                name=f"cluster-worker-{worker_index}",
                daemon=True,
            )
            process.start()
            return process

        processes = {index: spawn(index, armed=True)
                     for index in range(self.workers)}
        restarts = {index: 0 for index in range(self.workers)}
        finished: set[int] = set()

        while len(finished) < self.workers:
            try:
                event = queue.get(timeout=0.2)
            except Exception:
                event = None
            if event is not None:
                self._progress(event[0], tuple(event[1:]))
            for index, process in list(processes.items()):
                if index in finished or process.is_alive():
                    continue
                process.join()
                if process.exitcode == 0:
                    finished.add(index)
                    continue
                restarts[index] += 1
                if restarts[index] > self.config.max_restarts:
                    for other in processes.values():
                        if other.is_alive():
                            other.terminate()
                    raise ClusterError(
                        f"worker {index} died {restarts[index]} times "
                        f"(last exitcode {process.exitcode}); giving up"
                    )
                self._progress(index, ("respawn", process.exitcode))
                # Respawned workers never re-arm their injected fault.
                processes[index] = spawn(index, armed=False)

        # Drain any progress still in flight.
        while True:
            try:
                event = queue.get_nowait()
            except Exception:
                break
            self._progress(event[0], tuple(event[1:]))

        return self._collect(tasks)

    def _collect(self, tasks: list[dict]) -> list[dict]:
        records = []
        for task in tasks:
            path = result_path(self.config.run_dir, task["index"])
            if not os.path.exists(path):
                raise ClusterError(
                    f"workers exited cleanly but {path} is missing")
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
        return records
