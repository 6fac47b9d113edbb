#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 bench/run.py                      # every workload, both clocks
    python3 bench/run.py --workload link_soak --seed 31
    python3 bench/run.py --smoke              # 1/10 scale, self-test only

Without ``--trace`` this is the ledger: it runs each workload twice, each
time in a fresh subprocess (``--trace 0``: end-to-end metrics on both
clocks; ``--trace 1``: per-layer attribution), prints every metric of
``BENCHMARK.json`` by name with its unit, and with ``--out`` writes the
record ``bench/compare.py`` reads.

With ``--trace 0|1`` it is one such subprocess, and its last line of
output is the JSON object the benchmark contract asks for.  Any failed
check (an invariant, cross-repeat determinism, an unverifiable proof)
exits non-zero and prints no JSON.

Protocol of one ``--trace 0`` run, single-threaded:

1. import the program and build a fresh world, handshakes included
   (``setup_s`` = median import time, over this process and four fresh
   interpreters, + median build time over the repeats);
2. ``--seconds`` / 3.5 repeats, at least three, each on a fresh world:
   ``gc.collect(); gc.freeze()``, then the timed section and the read
   phase, each bracketed by the reference loop (``bench/calibrate.py``);
   then the untimed harvest and checks;
3. simulated-clock metrics, the dispatched-event count and the guest
   store root must be bit-identical across the repeats.

A ``--trace 1`` run does one untraced repeat, one with the program's
tracer on, and one under ``cProfile`` (``bench/layers.py``).

The first repeat also settles the inputs.  About one seed in a hundred
builds a world the program itself cannot run cleanly (a handshake that
dies, a storm that slashes every validator; ``bench/README.md``), and a
workload is to be one on which no operation fails.  So if the first
repeat raises, the run moves once to ``seed + RESEED_STRIDE``, says so
on stderr and on the DETAIL line, and measures that world instead.  A
second failure, or any failure after the first repeat, fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Callable, NoReturn, Optional, TypeVar

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
T = TypeVar("T")
SMOKE_SCALE = 0.1
READ_PROOFS = 8_000
MIN_REPEATS = 3
#: Measured time one repeat is sized to on the reference box.  The number
#: of repeats follows from ``--seconds`` alone, never from how fast this
#: machine or this commit happens to be: both sides of a comparison run
#: the same protocol.
NOMINAL_REPEAT_SECONDS = 3.5
#: Where a run looks for inputs when the world of ``--seed`` is unsound.
RESEED_STRIDE = 1_000_003
#: ``setup_s`` is mostly import time, a fifth of a second that swings by
#: half with the file cache and the machine's phase: it is the median of
#: this many imports, the run's own and the rest in fresh interpreters.
IMPORT_SAMPLES = 5
_IMPORT_PROBE = ("import time; started = time.perf_counter(); "
                 "import layers, workloads; from repro import ids; "
                 "print(time.perf_counter() - started)")


def load_catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fail(message: str) -> NoReturn:
    print(f"bench: FAILED: {message}", file=sys.stderr)
    sys.exit(1)


# ----------------------------------------------------------------------
# One workload in this process (the contract's command)
# ----------------------------------------------------------------------

class Repeat:
    """One fresh world, built, timed and harvested."""

    def __init__(self, workload, seed: int, proofs: int, *,
                 tracing: bool = False, profiler=None) -> None:
        started = time.perf_counter()
        world = workload.build(seed, tracing)
        self.build_s = time.perf_counter() - started
        calibrate.quiesce()

        def timed_section() -> None:
            # The profile covers the timed section alone: neither the
            # reference loop nor the read phase, which is all trie.
            if profiler is None:
                workload.run(world)
                return
            profiler.enable()
            try:
                workload.run(world)
            finally:
                profiler.disable()

        self.run = calibrate.bracketed(timed_section)
        self.plan = workload.read_plan(world, proofs)
        self.read = calibrate.bracketed(self.plan.run, before=self.run.after_s)
        self.outcome = workload.harvest(world)
        self.trace = world.sim.trace.report() if tracing else None
        self.simulated_seconds = world.sim.now - world.traffic_started_at
        self.root = bytes(world.store.root_hash).hex()
        del world
        calibrate.release()

    def fingerprint(self) -> tuple:
        return (sorted(self.outcome.sim.items()),
                self.outcome.events_dispatched, self.root,
                self.outcome.attempted, self.plan.attempted)


def check_same(first: Repeat, other: Repeat, what: str) -> None:
    if first.fingerprint() != other.fingerprint():
        diff = {name: (value, other.outcome.sim.get(name))
                for name, value in first.outcome.sim.items()
                if other.outcome.sim.get(name) != value}
        fail(f"{what} is not bit-identical to the first repeat: "
             f"events {first.outcome.events_dispatched} vs "
             f"{other.outcome.events_dispatched}, root {first.root[:12]} vs "
             f"{other.root[:12]}, metrics {diff}")


def sound_inputs(attempt: Callable[[int], T], seed: int
                 ) -> tuple[T, int, Optional[dict]]:
    """``attempt(seed)``, or, if that raises (the program or an invariant:
    this seed's world is not one on which no operation fails),
    ``attempt(seed + RESEED_STRIDE)``, once.  Returns the result, the seed
    it came from and, if a world was discarded, which and why."""
    try:
        return attempt(seed), seed, None
    except Exception as error:  # whatever the program raised
        why = f"{type(error).__name__}: {error}"
    # Out of the handler, so that the traceback lets the dead world go.
    calibrate.release()
    print(f"bench: seed {seed} discarded ({why}); measuring seed "
          f"{seed + RESEED_STRIDE} instead", file=sys.stderr)
    return (attempt(seed + RESEED_STRIDE), seed + RESEED_STRIDE,
            {"seed": seed, "why": why})


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes over the imports ``measure``
    starts with."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), BENCH_DIR)))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def measure(args, catalogue: dict) -> None:
    import resource

    units = {entry["name"]: entry["unit"]
             for entry in catalogue["end_to_end"] + catalogue["per_layer"]}

    started = time.perf_counter()
    import layers
    import workloads
    from repro import ids
    import_s = time.perf_counter() - started

    scale = SMOKE_SCALE if args.smoke else 1.0
    proofs = max(200, round(READ_PROOFS * scale))
    workload = workloads.WORKLOADS[args.workload](scale)
    seed = workload.default_seed if args.seed is None else args.seed
    mints = ids.mint_states()

    def repeat_on(seed: int, **how) -> Repeat:
        # Ids are process-global; rewinding makes every repeat mint the
        # ids the first one did, as a fresh process would.
        ids.rewind_mints(mints)
        return Repeat(workload, seed, proofs, **how)

    try:
        first, seed, discarded = sound_inputs(repeat_on, seed)

        def repeat(**how) -> Repeat:
            return repeat_on(seed, **how)

        detail: dict = {"workload": workload.name, "seed": seed,
                        "scale": scale, "trace": args.trace,
                        "discarded": discarded}
        if args.trace == 0:
            repeats = [first]
            while len(repeats) < max(MIN_REPEATS, round(
                    args.seconds / NOMINAL_REPEAT_SECONDS)):
                repeats.append(repeat())
                check_same(first, repeats[-1], f"repeat {len(repeats)}")
            wall = calibrate.summarize([r.run for r in repeats])
            prove = calibrate.summarize([r.read for r in repeats])
            builds = sorted(r.build_s for r in repeats)
            imports = sorted([import_s] + [fresh_import_seconds()
                                           for _ in range(IMPORT_SAMPLES - 1)])
            values = dict(first.outcome.sim)
            values.update({
                "wall_norm": wall["norm"],
                "prove_norm": prove["norm"],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": (imports[len(imports) // 2]
                            + builds[len(builds) // 2]),
            })
            names = [entry["name"] for entry in catalogue["end_to_end"]]
            detail.update(repeats=len(repeats), wall=wall, prove=prove,
                          import_s=imports, build_s=builds,
                          samples=first.outcome.samples,
                          events_dispatched=first.outcome.events_dispatched,
                          store_root=first.root)
        else:
            import cProfile
            import pstats

            plain = first
            traced = repeat(tracing=True)
            # The tracer only records: the simulation must not notice it.
            check_same(plain, traced, "the tracer-on run")
            profiler = cProfile.Profile()
            profiled = repeat(profiler=profiler)
            check_same(plain, profiled, "the profiled run")
            repeats = [plain, traced, profiled]
            values = layers.per_layer_metrics(
                stats=pstats.Stats(profiler), trace=traced.trace,
                outcome=traced.outcome, read_plan=traced.plan,
                simulated_seconds=traced.simulated_seconds,
                tracer_overhead=traced.run.norm / plain.run.norm,
                profile_overhead=profiled.run.norm / plain.run.norm,
            )
            names = [entry["name"] for entry in catalogue["per_layer"]]
            detail.update(samples=traced.outcome.samples,
                          wall_norm_plain=plain.run.norm,
                          wall_norm_traced=traced.run.norm,
                          wall_norm_profiled=profiled.run.norm)
    except workloads.BenchFailure as error:
        fail(f"{workload.name} seed {seed}: {error}")

    missing = [name for name in names if name not in values]
    if missing:
        fail(f"runner produced no value for {missing}")
    attempted = sum(r.outcome.attempted + r.plan.attempted for r in repeats)
    failed = sum(r.outcome.failed + r.plan.failed for r in repeats)
    if failed:
        fail(f"{workload.name} seed {seed}: {failed} of {attempted} "
             "operations failed")

    print(f"# {workload.name} seed={seed} scale={scale} trace={args.trace} "
          f"repeats={len(repeats)} operations={attempted} failed={failed}")
    for name in names:
        print(f"{name:42s} {values[name]:>18.6f} {units[name]}")
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in names},
    }))


# ----------------------------------------------------------------------
# The ledger: every workload, each run in a fresh subprocess
# ----------------------------------------------------------------------

def run_child(workload: str, trace: int, args) -> tuple[dict, dict]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--trace", str(trace),
               "--seconds", str(args.seconds)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stdout.write("".join(
        line + "\n" for line in done.stdout.splitlines()[:-2]))
    sys.stdout.flush()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload} --trace {trace} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("DETAIL "))


def ledger(args, catalogue: dict) -> None:
    chosen = ([args.workload] if args.workload
              else [entry["name"] for entry in catalogue["workloads"]])
    record = {"smoke": args.smoke, "workloads": {}}
    for workload in chosen:
        end_to_end, detail = run_child(workload, 0, args)
        per_layer, layer_detail = run_child(workload, 1, args)
        record["workloads"][workload] = {
            "seed": detail["seed"],
            "attempted": end_to_end["attempted"],
            "failed": end_to_end["failed"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
            "detail": detail,
            "layer_detail": layer_detail,
        }
    if args.out:
        if args.smoke:
            fail("--smoke results are never recorded; drop --out")
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        print(f"# wrote {args.out}")
    print(json.dumps(record, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 scale for the self-test; never recorded")
    parser.add_argument("--out", help="ledger mode: write the record here")
    args = parser.parse_args()

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("bench: the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        sys.exit(2)
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    known = [entry["name"] for entry in catalogue["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")

    if args.trace is None:
        ledger(args, catalogue)
        return
    if args.workload is None:
        parser.error("--trace needs --workload")
    # The benchmark builds nothing: the program runs from source.
    sys.path.insert(0, source)
    measure(args, catalogue)


if __name__ == "__main__":
    main()
