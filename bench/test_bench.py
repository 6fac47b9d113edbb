"""Self-test of the perf ledger, at ``--smoke`` scale.

    python -m pytest bench -q

Not collected by tier-1 (``testpaths = tests``).  It checks that the
attribution reconciles - stage spans against the end-to-end latency
they decompose, layer shares against 1, call counts against themselves
- and that the runner honours ``BENCHMARK.json`` and the contract.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for entry in (os.path.join(ROOT, "src"), BENCH_DIR):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CATALOGUE = json.load(_handle)


def run_child(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    command = [sys.executable, script or os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--smoke", "--trace", str(trace),
               "--seconds", "1"]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          check=False, timeout=180)


@pytest.fixture(scope="module")
def paper_day_layers():
    """Two independent profiled runs of the same workload and seed."""
    runs = [run_child("paper_day", 1) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    return runs


def metrics_of(run) -> dict[str, float]:
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_catalogue_meets_the_contract():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert CATALOGUE["paths"] == ["bench"]
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    assert 1 <= CATALOGUE["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CATALOGUE[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in CATALOGUE["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert "\n" not in entry["why"]
        assert entry["name"] in workloads.WORKLOADS
    for entry in CATALOGUE["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CATALOGUE["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    setup = [e for e in CATALOGUE["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in CATALOGUE["end_to_end"])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    run = run_child("link_soak", 0)
    assert run.returncode == 0, run.stderr
    values = metrics_of(run)
    assert list(values) == [e["name"] for e in CATALOGUE["end_to_end"]]
    assert all(value != 0 for value in values.values())
    for entry in CATALOGUE["end_to_end"]:
        assert re.search(rf"^{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}$",
                         run.stdout, re.MULTILINE), entry["name"]


def test_every_per_layer_metric_is_printed_with_its_unit(paper_day_layers):
    run = paper_day_layers[0]
    values = metrics_of(run)
    assert list(values) == [e["name"] for e in CATALOGUE["per_layer"]]
    for entry in CATALOGUE["per_layer"]:
        assert re.search(rf"^{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}$",
                         run.stdout, re.MULTILINE), entry["name"]


def test_layer_shares_sum_to_one(paper_day_layers):
    values = metrics_of(paper_day_layers[0])
    shares = [values[f"{name}.self_share"]
              for name in layers.LAYERS + (layers.OTHER,)]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert all(share >= 0 for share in shares)


def test_call_counts_repeat_exactly(paper_day_layers):
    first, second = (metrics_of(run) for run in paper_day_layers)
    for name in layers.LAYERS + (layers.OTHER,):
        assert first[f"{name}.calls"] == second[f"{name}.calls"], name
    assert first["sim.events_dispatched"] == second["sim.events_dispatched"]


def test_stage_spans_do_not_exceed_the_latency_they_decompose(paper_day_layers):
    values = metrics_of(paper_day_layers[0])
    # Counterparty -> guest: wait for a light-client update, the update,
    # the delivery bundle.  Guest -> counterparty: finality, then relay.
    to_guest = values["relayer.e2e_to_guest_p50_s"]
    to_counterparty = values["relayer.e2e_to_counterparty_p50_s"]
    assert 0 < values["relayer.lc_update_p50_s"] <= to_guest
    assert 0 < values["relayer.deliver_to_guest_p50_s"] <= to_guest
    assert 0 < values["relayer.relay_p50_s"] <= to_counterparty
    assert 0 < values["guest.fig2_send_latency_p50_s"] <= to_counterparty
    # The two guest stages are the halves of Fig. 2's send latency.
    assert (values["guest.block_wait_p50_s"]
            <= values["guest.fig2_send_latency_p50_s"])
    assert (values["guest.quorum_wait_p50_s"]
            <= values["guest.fig2_send_latency_p50_s"])


def test_block_wait_plus_quorum_wait_is_the_send_latency_per_packet():
    workload = workloads.WORKLOADS["paper_day"](0.1)
    world = workload.build(workload.default_seed, tracing=True)
    workload.run(world)
    workload.harvest(world)
    trace = world.sim.trace.report()
    stages: dict[int, float] = {}
    for name in ("packet.block_wait", "packet.quorum_wait"):
        for span in trace.spans_named(name):
            assert span.duration is not None
            stages[span.key] = stages.get(span.key, 0.0) + span.duration
    sends = world.parts["results"].sends
    assert len(sends) >= 10 and len(stages) == len(sends)
    for record in sends:
        assert stages[record.sequence] == pytest.approx(record.latency, abs=1e-6)
    observed, pending = world.observer.finality_latencies(sends_only=True)
    assert pending == 0
    assert sorted(observed) == pytest.approx(
        sorted(record.latency for record in sends), abs=1e-6)


def test_profile_attribution_charges_builtins_to_their_callers():
    import cProfile
    import hashlib
    import pstats

    from repro.crypto.hashing import hash_bytes

    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(2_000):
        hash_bytes(index.to_bytes(4, "big"))
        hashlib.sha256(b"from the test itself").digest()
    profiler.disable()
    stats = pstats.Stats(profiler)
    seconds, calls = layers.attribute(stats)
    assert calls["crypto"] >= 2_000
    assert seconds["crypto"] > 0 and seconds["other"] > 0
    assert sum(seconds.values()) == pytest.approx(stats.total_tt, rel=0.01)
    assert layers.named_calls(stats, "crypto", ("hash_bytes",)) == 2_000


def test_compare_verdicts():
    assert compare.verdict([10.0], [10.5], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict([10.0], [11.5], "lower", 0.1)[0] == "regressed"
    assert compare.verdict([10.0], [8.0], "higher", 0.1)[0] == "regressed"
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0]
    assert compare.verdict(noisy, [v * 1.3 for v in noisy], "lower", 0.1)[0] == "unresolved"
    steady = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(steady, [v * 0.9 for v in steady], "lower", 0.1)[0] == "improved"
    assert compare.verdict(steady, [v * 0.9 for v in steady][:5], "lower", 0.1)[0] == "unchanged"


def test_an_unsound_seed_is_discarded_once_and_said_so(capsys):
    def attempt(seed: int) -> str:
        if seed in unsound:
            raise workloads.BenchFailure(f"world {seed} is broken")
        return f"world {seed}"

    unsound = {7}
    assert run.sound_inputs(attempt, 3) == ("world 3", 3, None)
    assert not capsys.readouterr().err
    moved = 7 + run.RESEED_STRIDE
    assert run.sound_inputs(attempt, 7) == (
        f"world {moved}", moved,
        {"seed": 7, "why": "BenchFailure: world 7 is broken"})
    assert "seed 7 discarded" in capsys.readouterr().err
    unsound.add(moved)
    with pytest.raises(workloads.BenchFailure):
        run.sound_inputs(attempt, 7)


def test_without_the_program_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    run = run_child("link_soak", 0, cwd=str(tmp_path),
                    script=str(tmp_path / "bench" / "run.py"))
    assert run.returncode != 0
    assert not run.stdout.strip()
