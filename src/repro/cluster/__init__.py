"""Sharded multi-process task runner (``docs/CHECKPOINT.md``).

Shards a task list (a sweep's points) across worker processes, streams
progress over a results queue, checkpoints in-flight worlds between
slices with :mod:`repro.checkpoint`, and resumes killed workers with
byte-identical merged results.  The sweeps that use it live with their
experiments: ``run_throughput_sweep(cluster=...)`` and
``run_state_sweep(cluster=...)``.
"""

from repro.cluster.runner import (
    ClusterConfig,
    ClusterError,
    ClusterRunner,
    WorkerFault,
)
from repro.cluster.worker import TASK_KINDS, worker_main

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterRunner",
    "TASK_KINDS",
    "WorkerFault",
    "worker_main",
]
