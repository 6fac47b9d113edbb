"""Command-line harness: every figure, sweep and CI gate from a terminal.

Usage::

    python -m repro.experiments               # every paper figure (≈1-2 min)
    python -m repro.experiments fig2 fig4     # just those
    python -m repro.experiments --duration-hours 48 table1
    python -m repro.experiments throughput --cluster-workers 4
    python -m repro.experiments --help        # every target, one line each

What can be run is the ``TARGETS`` table below — one row per target:
what to run, how to print it, which ``BENCH_<record>.json`` it writes
and which check gates it.  ``main`` is one loop over the selected rows
(in table order); nothing else in this file knows a target by name.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One row of the CLI."""

    about: str
    #: ``run(opts) -> result``; ``opts`` is the parsed command line with
    #: ``seed`` resolved for this row, ``cluster`` its ``ClusterConfig``
    #: (or None: run serially) and ``evaluation`` the memoised
    #: evaluation run.
    run: Callable[[argparse.Namespace], Any]
    render: Callable[[Any], str]
    #: Write the (JSON-ready) result to ``BENCH_<record>.json``.
    record: Optional[str] = None
    #: ``check(result) -> failure messages``; any failure fails the run.
    check: Optional[Callable[[Any], list[str]]] = None
    #: A paper figure: part of ``all``.
    figure: bool = False
    #: The seed the row runs at unless ``--seed`` says otherwise; None
    #: for rows without one.
    seed: Optional[int] = None
    #: Can shard its points across ``--cluster-workers`` processes.
    shards: bool = False


class _Lazy:
    """A module under ``repro`` whose attributes are call-throughs that
    import it on first *call*: a row costs its imports (the fabric, the
    injector, multiprocessing) only when it is selected."""

    def __init__(self, module: str) -> None:
        self._module = f"repro.{module}"

    def __getattr__(self, name: str) -> Callable:
        def call(*args, **kwargs):
            module = importlib.import_module(self._module)
            return getattr(module, name)(*args, **kwargs)
        return call


report = _Lazy("experiments.report")
storage = _Lazy("experiments.storage")
throughput = _Lazy("experiments.throughput")
chaos = _Lazy("experiments.chaos")
accountability = _Lazy("experiments.accountability")
topology = _Lazy("experiments.topology")
state = _Lazy("experiments.state")
profiling = _Lazy("experiments.profiling")
audit = _Lazy("checkpoint.audit")


def _evaluation(seed: int, hours: float, plan: str):
    """The evaluation deployment behind six of the figures (``main``
    memoises it per invocation, so it runs once however many of them
    are selected), its relayer shipping light-client updates by
    ``plan``: ``"paper"``, the way the deployment did, for every
    figure."""
    from repro.experiments.evaluation import EvaluationConfig, EvaluationRun

    return EvaluationRun(EvaluationConfig(
        seed=seed, duration=hours * 3600.0, lc_update_plan=plan)).execute()


def _figure(about: str, render: Callable) -> Target:
    return Target(
        about, run=lambda o: o.evaluation(o.seed, o.duration_hours, "paper"),
        render=render, figure=True, seed=2024)


def _lc_figure(about: str, render: Callable, record: str) -> Target:
    """Fig. 4/5: the paper's update plan is the figure; the relayer's
    default plan runs beside it, and both are gated."""
    return Target(
        about,
        run=lambda o: {
            plan: report.lc_update_series(
                o.evaluation(o.seed, o.duration_hours, plan))
            for plan in ("paper", "quorum")},
        render=render, record=record, check=report.check_lc_update_plans,
        figure=True, seed=2024)


def _fig6(opts):
    from repro.experiments.blocks import (
        CLI_DURATION, BlockIntervalConfig, BlockIntervalRun,
    )
    return BlockIntervalRun(BlockIntervalConfig(
        seed=opts.seed, duration=CLI_DURATION)).execute()


TARGETS: dict[str, Target] = {
    "fig2": _figure("Fig. 2, send latency and its decomposition",
                    report.render_fig2),
    "fig3": _figure("Fig. 3, send cost by fee strategy", report.render_fig3),
    "fig4": _lc_figure("Fig. 4, light-client update latency",
                       report.render_fig4, "fig4"),
    "fig5": _lc_figure("Fig. 5, light-client update cost",
                       report.render_fig5, "fig5"),
    "recv": _figure("§V-A ReceivePacket cost", report.render_receive_packet),
    "table1": _figure("Table I, validator statistics", report.render_table1),
    "fig6": Target(
        "Fig. 6, guest inter-block intervals over three simulated days",
        run=_fig6, render=report.render_fig6, figure=True, seed=2024),
    "storage": Target(
        "§V-D storage sizing, rent deposit and the sealing ablation",
        run=lambda o: (storage.measure_capacity(), storage.sealing_ablation()),
        render=lambda r: report.render_storage(*r), figure=True),
    "throughput": Target(
        "offered load vs sustained throughput across batching configs",
        run=lambda o: throughput.run_throughput_sweep(
            seed=o.seed, cluster=o.cluster),
        render=throughput.render_sweep, record="throughput",
        figure=True, seed=101, shards=True),
    "throughput-smoke": Target(
        "the throughput sweep at CI scale, asserting the batching win",
        run=lambda o: throughput.run_throughput_smoke(
            seed=o.seed, cluster=o.cluster),
        render=throughput.render_sweep, record="throughput_smoke",
        check=throughput.check_smoke, seed=101, shards=True),
    "chaos-soak": Target(
        "the docs/CHAOS.md fault storm against its fault-free twin",
        run=lambda o: chaos.run_chaos_soak(chaos.ChaosSoakConfig(seed=o.seed)),
        render=chaos.render_chaos, record="chaos",
        check=chaos.check_chaos_smoke, seed=2024),
    "chaos-smoke": Target(
        "the fault storm at CI scale",
        run=lambda o: chaos.run_chaos_smoke(seed=o.seed),
        render=chaos.render_chaos, record="chaos_smoke",
        check=chaos.check_chaos_smoke, seed=2024),
    "accountability-smoke": Target(
        "docs/ACCOUNTABILITY.md equivocation storm, three seeds run twice",
        run=lambda o: accountability.run_accountability_smoke(
            seeds=tuple(range(o.seed, o.seed + 3))),
        render=accountability.render_accountability,
        record="accountability_smoke",
        check=accountability.check_accountability_smoke, seed=505),
    "topology-sweep": Target(
        "docs/FABRIC.md: 1-8 guests on one host, plus the routed transfer",
        run=lambda o: topology.run_topology_sweep(
            topology.TopologySweepConfig(seed=o.seed)),
        render=topology.render_topology, record="topology",
        check=topology.check_topology, seed=2024),
    "topology-smoke": Target(
        "the fabric sweep at CI scale, plus the link-order case",
        run=lambda o: topology.run_topology_smoke(seed=o.seed),
        render=topology.render_topology, record="topology_smoke",
        check=topology.check_topology, seed=2024),
    "state-sweep": Target(
        "docs/STATE.md: sealing schedulers over a million packets each",
        run=lambda o: state.run_state_sweep(
            state.StateSweepConfig(point=state.StatePointConfig(seed=o.seed)),
            cluster=o.cluster),
        render=state.render_state, record="state",
        check=state.check_state, seed=2024, shards=True),
    "state-smoke": Target(
        "the sealing-scheduler comparison at CI scale",
        run=lambda o: state.run_state_smoke(seed=o.seed, cluster=o.cluster),
        render=state.render_state, record="state_smoke",
        check=state.check_state, seed=2024, shards=True),
    "wallclock-smoke": Target(
        "docs/PERFORMANCE.md: a scaled soak must clear the packets/s floor",
        run=lambda o: profiling.run_wallclock_smoke(seed=o.seed),
        render=lambda r: profiling.render_soak_result(
            r, title="wallclock-smoke"),
        record="wallclock_smoke", check=profiling.check_wallclock, seed=29),
    "replay-audit": Target(
        "docs/CHECKPOINT.md: snapshot, restore and replay per --audit-seeds",
        run=lambda o: audit.run_replay_audits(seeds=tuple(o.audit_seeds)),
        render=audit.render_replay_audits, record="replay_audit",
        check=audit.check_replay_audits),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures, run the "
                    "sweeps and the CI gates.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="targets (* = part of 'all'; fig2-table1 share one "
               "--duration-hours evaluation deployment):\n" + "\n".join(
            f"  {'*' if row.figure else ' '} {name:<21}{row.about}"
            for name, row in TARGETS.items()),
    )
    parser.add_argument("targets", nargs="*", default=["all"],
                        help=f"any of: {' '.join(TARGETS)} all")
    parser.add_argument("--seed", type=int, default=None,
                        help="run every selected target that has a seed at "
                             "this one (default: each target's own)")
    parser.add_argument("--duration-hours", type=float, default=24.0,
                        help="length of the simulated evaluation deployment")
    parser.add_argument("--cluster-workers", type=int, default=None,
                        help="shard the selected sweeps' points across this "
                             "many worker processes (0: one per CPU; "
                             "default: run serially)")
    parser.add_argument("--run-dir", default="results/cluster-run",
                        help="where sharded sweeps keep task files, "
                             "checkpoints and results, one subdirectory "
                             "per target")
    parser.add_argument("--checkpoint-every", type=float, default=300.0,
                        help="simulated seconds between mid-task world "
                             "checkpoints in cluster workers (0 = off)")
    parser.add_argument("--audit-seeds", type=int, nargs="+",
                        default=[401, 402, 403],
                        help="seeds for the replay-audit target")
    return parser


def _options(args: argparse.Namespace, name: str, row: Target):
    """``args`` as one row sees it: its seed and its cluster resolved."""
    cluster = None
    if row.shards and args.cluster_workers is not None:
        from repro.cluster import ClusterConfig

        cluster = ClusterConfig(
            workers=args.cluster_workers,
            # One directory per row: a run dir refuses a second task list.
            run_dir=os.path.join(args.run_dir, name),
            checkpoint_every_seconds=args.checkpoint_every,
        )
    seed = args.seed if None not in (args.seed, row.seed) else row.seed
    return argparse.Namespace(**{**vars(args), "seed": seed, "cluster": cluster})


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    unknown = set(args.targets) - set(TARGETS) - {"all"}
    if unknown:
        parser.error(f"unknown targets: {', '.join(sorted(unknown))} "
                     f"(known: {' '.join(TARGETS)} all)")
    selected = {name: row for name, row in TARGETS.items()
                if name in args.targets
                or (row.figure and "all" in args.targets)}
    # An option no selected row can honour is an error, not a no-op.
    if args.seed is not None and all(
            row.seed is None for row in selected.values()):
        parser.error(f"--seed: none of {' '.join(selected)} takes a seed")
    if args.cluster_workers is not None and not any(
            row.shards for row in selected.values()):
        parser.error(f"--cluster-workers: none of {' '.join(selected)} "
                     f"can shard")

    args.evaluation = functools.cache(_evaluation)
    blocks: list[str] = []
    status = 0
    for name, row in selected.items():
        print(f"Running {name}: {row.about}...", file=sys.stderr)
        started = time.time()
        result = row.run(_options(args, name, row))
        print(f"  done in {time.time() - started:.1f} s", file=sys.stderr)
        blocks.append(row.render(result))
        if row.record is not None:
            with open(f"BENCH_{row.record}.json", "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
        for failure in (row.check(result) if row.check else ()):
            print(f"{name} FAILURE: {failure}", file=sys.stderr)
            status = 1
    print("\n\n".join(blocks))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
