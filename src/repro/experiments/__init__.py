"""Experiment runners: the paper's §V figures, the sweeps and the CI gates.

``python -m repro.experiments --help`` lists everything that can be run;
the list is the ``TARGETS`` table in :mod:`repro.experiments.__main__`,
one row per target (run, render, ``BENCH_<record>.json``, check).  The
modules behind the rows:

* :mod:`~repro.experiments.evaluation` — the main simulated deployment
  behind Fig. 2–5, Table I and the ReceivePacket numbers of §V-A;
  :mod:`~repro.experiments.blocks` — the long-horizon run behind Fig. 6;
  :mod:`~repro.experiments.storage` — §V-D storage sizing and the
  seal-vs-no-seal ablation; :mod:`~repro.experiments.report` — text
  rendering of all of these in the paper's format.
* :mod:`~repro.experiments.throughput` — offered load vs. sustained
  throughput across relayer batching configs, serial or sharded; also
  home of the one link-under-load builder (``build_linked_deployment``)
  the next three share.
* :mod:`~repro.experiments.profiling` — the soak workload under a timer
  (``wallclock-smoke``).
* :mod:`~repro.experiments.chaos` and
  :mod:`~repro.experiments.accountability` — the fault storm against
  its fault-free twin, and the equivocation storm.
* :mod:`~repro.experiments.topology` — multi-guest fabric sweep;
  :mod:`~repro.experiments.state` — sealing-scheduler sweep, serial or
  sharded.
* :mod:`~repro.experiments.ablations` and
  :mod:`~repro.experiments.lightclient_cost` — design-choice sweeps
  (§VI) driven from ``benchmarks/``, not from the CLI.
"""

from repro.experiments.evaluation import EvaluationConfig, EvaluationRun

__all__ = ["EvaluationConfig", "EvaluationRun"]
