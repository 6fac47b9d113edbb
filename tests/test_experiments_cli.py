"""The experiment harness: the ``TARGETS`` table, the one loop over it,
and the one link-under-load builder.

The loop is tested with stub rows patched into the table (no
million-packet sweep runs in tier-1) and end to end on the cheap real
rows; the builder is pinned against the worlds the three builders it
replaced (``profiling.build_soak``, ``throughput.build_linked_deployment``
and ``chaos.build_chaos_deployment``) produced.
"""

import json

import pytest

from repro.experiments.__main__ import TARGETS, Target, main


def stub(record, failures=(), **fields):
    """A row that runs instantly and records what options it saw."""
    seen = []

    def run(opts):
        seen.append(opts)
        return {"row": record}

    row = Target(f"stub {record}", run=run, render=lambda r: f"<{r['row']}>",
                 record=record, check=lambda r: list(failures), **fields)
    return row, seen


@pytest.fixture
def cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestTable:
    def test_every_checked_row_leaves_a_record(self):
        for name, row in TARGETS.items():
            assert row.check is None or row.record is not None, name

    def test_record_names_are_unique(self):
        records = [row.record for row in TARGETS.values() if row.record]
        assert len(records) == len(set(records))

    def test_help_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert name in out

    def test_unknown_target_error_lists_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        err = capsys.readouterr().err
        assert "fig99" in err and "replay-audit" in err

    def test_all_is_the_figure_rows(self, cwd, monkeypatch):
        ran = []
        for name, row in list(TARGETS.items()):
            monkeypatch.setitem(TARGETS, name, Target(
                row.about, run=lambda o, name=name: ran.append(name),
                render=str, figure=row.figure))
        assert main([]) == 0
        assert ran == ["fig2", "fig3", "fig4", "fig5", "recv", "table1",
                       "fig6", "storage", "throughput"]
        del ran[:]
        assert main(["all"]) == 0
        assert ran == [name for name, row in TARGETS.items() if row.figure]

    def test_figures_share_one_evaluation_run(self, cwd, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(
            "repro.experiments.__main__._evaluation",
            lambda seed, hours, plan:
                runs.append((seed, hours, plan)) or f"results[{plan}]")
        for render in ("render_fig2", "render_fig4", "render_fig5",
                       "render_table1"):
            monkeypatch.setattr(f"repro.experiments.report.{render}",
                                lambda results, render=render:
                                f"{render}({results})")
        monkeypatch.setattr("repro.experiments.report.lc_update_series", str)
        monkeypatch.setattr(
            "repro.experiments.report.check_lc_update_plans", lambda plans: [])
        assert main(["table1", "fig2", "fig4", "fig5",
                     "--duration-hours", "2"]) == 0
        # One run of the paper's deployment for every figure, plus one
        # under the relayer's default update plan for Fig. 4/5 to show
        # beside it.
        assert runs == [(2024, 2.0, "paper"), (2024, 2.0, "quorum")]
        plans = "{'paper': 'results[paper]', 'quorum': 'results[quorum]'}"
        assert capsys.readouterr().out.startswith(
            f"render_fig2(results[paper])\n\nrender_fig4({plans})\n\n")
        assert json.loads((cwd / "BENCH_fig4.json").read_text()) == {
            "paper": "results[paper]", "quorum": "results[quorum]"}
        # Memoised per invocation, not per process.
        assert main(["fig2", "--duration-hours", "2", "--seed", "5"]) == 0
        assert main(["fig2", "--duration-hours", "2", "--seed", "5"]) == 0
        assert runs[2:] == [(5, 2.0, "paper"), (5, 2.0, "paper")]

    def test_lc_update_plans_are_gated(self):
        from repro.experiments.report import check_lc_update_plans

        def series(txs, signatures, latency, peak):
            return {"transactions": [txs], "signatures": [signatures],
                    "cents": [0.1 * (txs + signatures)],
                    "latency_s": [latency], "peak_in_flight": [peak]}

        good = {"paper": series(36, 161, 22.4, 3),
                "quorum": series(15, 76, 5.0, 14)}
        assert check_lc_update_plans(good) == []
        assert check_lc_update_plans(
            {**good, "paper": series(29, 161, 22.4, 3)})[0].startswith(
                "paper plan: 29.0 txs per update, outside")
        assert check_lc_update_plans(
            {**good, "quorum": series(18, 76, 5.0, 17)})[0].startswith(
                "default plan: 18.0 txs per update, over the 17")
        overcharged = dict(series(15, 76, 5.0, 14), cents=[9.2])
        assert "not 0.1c x (txs + signatures)" in check_lc_update_plans(
            {**good, "quorum": overcharged})[0]
        # Latency is gated as well as size: the paper plan must stay in
        # Fig. 4's regime, the burst at under half of it, and the paper
        # plan may never have more than its three in flight.
        assert check_lc_update_plans(
            {**good, "paper": series(36, 161, 9.0, 3)})[0].startswith(
                "paper plan: update latency p50 9.0 s, outside")
        assert check_lc_update_plans(
            {**good, "quorum": series(15, 76, 11.3, 3)}) == [
                "default plan: update latency p50 11.3 s, over half the "
                "paper plan's 22.4 s"]
        assert check_lc_update_plans(
            {**good, "paper": series(36, 161, 22.4, 35)}) == [
                "paper plan: 35 transactions in flight at once, over the "
                "3 that calibrate Fig. 4"]

    def test_rows_run_in_table_order(self, cwd, monkeypatch, capsys):
        first, _ = stub("first")
        second, _ = stub("second")
        monkeypatch.setitem(TARGETS, "fig2", first)
        monkeypatch.setitem(TARGETS, "storage", second)
        assert main(["storage", "fig2"]) == 0
        assert capsys.readouterr().out == "<first>\n\n<second>\n"

    def test_failing_check_fails_the_run_after_the_record(
            self, cwd, monkeypatch, capsys):
        failing, _ = stub("failing", failures=["went wrong"])
        after, after_seen = stub("after")
        monkeypatch.setitem(TARGETS, "storage", failing)
        monkeypatch.setitem(TARGETS, "state-smoke", after)
        assert main(["storage", "state-smoke"]) == 1
        # The failing row's record was written, and the rows after it ran.
        assert json.loads((cwd / "BENCH_failing.json").read_text()) == {
            "row": "failing"}
        assert len(after_seen) == 1 and (cwd / "BENCH_after.json").exists()
        captured = capsys.readouterr()
        assert "storage FAILURE: went wrong" in captured.err
        assert "<failing>\n\n<after>" in captured.out


class TestNothingSilentlyDropped:
    """The three drops of the per-target-branch CLI, pinned."""

    @pytest.mark.parametrize("full, smoke", [
        ("throughput", "throughput-smoke"), ("chaos-soak", "chaos-smoke"),
        ("topology-sweep", "topology-smoke"), ("state-sweep", "state-smoke"),
    ])
    def test_a_full_smoke_pair_runs_both_halves(self, cwd, monkeypatch,
                                                full, smoke):
        full_row, full_seen = stub("full")
        smoke_row, smoke_seen = stub("smoke")
        monkeypatch.setitem(TARGETS, full, full_row)
        monkeypatch.setitem(TARGETS, smoke, smoke_row)
        assert main([full, smoke]) == 0
        assert len(full_seen) == len(smoke_seen) == 1
        assert (cwd / "BENCH_full.json").exists()
        assert (cwd / "BENCH_smoke.json").exists()

    def test_the_real_pairs_write_distinct_records(self):
        for full, smoke in (("throughput", "throughput-smoke"),
                            ("chaos-soak", "chaos-smoke"),
                            ("topology-sweep", "topology-smoke"),
                            ("state-sweep", "state-smoke")):
            assert TARGETS[smoke].record == f"{TARGETS[full].record}_smoke"

    def test_cluster_workers_reach_every_shardable_row(self, cwd, monkeypatch):
        sharding, sharding_seen = stub("sharding", shards=True)
        other, other_seen = stub("other", shards=True)
        serial, serial_seen = stub("serial")
        monkeypatch.setitem(TARGETS, "throughput", sharding)
        monkeypatch.setitem(TARGETS, "state-smoke", other)
        monkeypatch.setitem(TARGETS, "storage", serial)
        assert main(["throughput", "state-smoke", "storage",
                     "--cluster-workers", "2", "--run-dir", "runs",
                     "--checkpoint-every", "50"]) == 0
        for name, seen in (("throughput", sharding_seen),
                           ("state-smoke", other_seen)):
            cluster = seen[0].cluster
            assert cluster.workers == 2
            assert cluster.checkpoint_every_seconds == 50.0
            # One run dir per row: a run dir refuses a second task list.
            assert cluster.run_dir.replace("\\", "/") == f"runs/{name}"
        assert serial_seen[0].cluster is None
        # Without the option every row runs serially.
        assert main(["throughput"]) == 0
        assert sharding_seen[1].cluster is None

    def test_the_shardable_rows(self):
        assert [name for name, row in TARGETS.items() if row.shards] == [
            "throughput", "throughput-smoke", "state-sweep", "state-smoke"]

    def test_throughput_shards(self, cwd, monkeypatch):
        """``throughput --cluster-workers 2`` replaces the old ``cluster``
        target: the real row hands the sweep a ClusterConfig."""
        calls = []

        def sweep(**kwargs):
            calls.append(kwargs)
            return {"offered_loads": [], "batch_sizes": [], "points": []}

        monkeypatch.setattr(
            "repro.experiments.throughput.run_throughput_sweep", sweep)
        assert main(["throughput", "--cluster-workers", "2"]) == 0
        (call,) = calls
        assert call["seed"] == 101
        assert call["cluster"].workers == 2
        assert (cwd / "BENCH_throughput.json").exists()
        assert "cluster" not in TARGETS

    def test_cluster_workers_without_a_shardable_row_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["storage", "chaos-smoke", "--cluster-workers", "2"])
        assert exit_info.value.code == 2
        assert "--cluster-workers" in capsys.readouterr().err

    def test_seed_without_a_seeded_row_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["storage", "replay-audit", "--seed", "7"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_reaches_every_seeded_row(self, cwd, monkeypatch):
        seeds = {}
        for name, row in list(TARGETS.items()):
            monkeypatch.setitem(TARGETS, name, Target(
                row.about, render=str, seed=row.seed,
                run=lambda o, name=name: seeds.update({name: o.seed})))
        assert main(list(TARGETS) + ["--seed", "7"]) == 0
        assert seeds == {name: (7 if row.seed is not None else None)
                         for name, row in TARGETS.items()}

    def test_seed_omitted_keeps_each_rows_own(self, cwd, monkeypatch):
        """No record moves: these are the seeds the old branches ran at."""
        seeds = {}
        for name, row in list(TARGETS.items()):
            monkeypatch.setitem(TARGETS, name, Target(
                row.about, render=str, seed=row.seed,
                run=lambda o, name=name: seeds.update({name: o.seed})))
        assert main(list(TARGETS)) == 0
        assert seeds == {
            "fig2": 2024, "fig3": 2024, "fig4": 2024, "fig5": 2024,
            "recv": 2024, "table1": 2024, "fig6": 2024, "storage": None,
            "throughput": 101, "throughput-smoke": 101,
            "chaos-soak": 2024, "chaos-smoke": 2024,
            "accountability-smoke": 505,
            "topology-sweep": 2024, "topology-smoke": 2024,
            "state-sweep": 2024, "state-smoke": 2024,
            "wallclock-smoke": 29, "replay-audit": None,
        }

    def test_the_real_rows_pass_their_seed_on(self, cwd, monkeypatch):
        """Rows that used to ignore ``--seed`` now hand it to their run."""
        calls = {}

        def record(name, result):
            def run(*args, **kwargs):
                calls[name] = (args, kwargs)
                return result
            return run

        monkeypatch.setattr(
            "repro.experiments.throughput.run_throughput_smoke",
            record("throughput", {"offered_loads": [4.0], "batch_sizes": [],
                                  "points": []}))
        monkeypatch.setattr("repro.experiments.throughput.check_smoke",
                            lambda results: [])
        monkeypatch.setattr(
            "repro.experiments.accountability.run_accountability_smoke",
            record("accountability", {"seeds": [], "runs": [],
                                      "converged": True}))
        monkeypatch.setattr(
            "repro.experiments.accountability.check_accountability_smoke",
            lambda record: [])
        assert main(["throughput-smoke", "accountability-smoke",
                     "--seed", "7"]) == 0
        assert calls["throughput"][1] == {"seed": 7, "cluster": None}
        assert calls["accountability"][1] == {"seeds": (7, 8, 9)}


class TestCheapRowsEndToEnd:
    def test_storage(self, cwd, capsys):
        assert main(["storage"]) == 0
        assert "Storage costs" in capsys.readouterr().out
        assert not list(cwd.glob("BENCH_*"))  # a figure, not a record

    def test_state_smoke(self, cwd, capsys):
        assert main(["state-smoke"]) == 0
        record = json.loads((cwd / "BENCH_state_smoke.json").read_text())
        assert record["seed"] == 2024
        assert [point["scheduler"] for point in record["points"]] == [
            "plain", "eager", "lazy", "rent-aware"]
        assert "(AGREE)" in capsys.readouterr().out

    def test_wallclock_smoke(self, cwd, capsys):
        from repro.experiments import profiling

        assert main(["wallclock-smoke"]) == 0
        record = json.loads((cwd / "BENCH_wallclock_smoke.json").read_text())
        assert record["packets"] == profiling.WALLCLOCK_SMOKE_PACKETS == 1_500
        assert record["floor_packets_per_sec"] == 70.0
        assert record["events_per_sec"] > 0  # kept, as information
        # 1 501 packets / 16 614 events while establishment took 252 s;
        # the ~15-transaction LC update opened the link at 216 s, and the
        # constant-rate window that starts there fits 1 500 sends
        # (16 174 events).  With the update's staging wave in flight at
        # once the link opens at 168 s: 16 174 -> 16 037.  One witness
        # per proof height instead of one path per packet takes the
        # delivery bundles to a fifth of their transactions, each an
        # arrival, an execution and a receipt fewer: 16 037 -> 12 366.
        # A host slot with an empty mempool is no longer an event:
        # 12 366 - 4 275 (``host.slots.idle`` over the run) = 8 091.
        # No 3 s counterparty poll (~610 timer events over the 1 838
        # simulated s) and LC_FINALIZE inside the update's wave:
        # 8 091 -> 7 436; every host subscription drawing its
        # observation delays from its own stream redraws the world:
        # 7 436 -> 7 497; each handshake step riding behind its header
        # in one counterparty block opens the link sooner: 7 497 -> 7 493.
        # The relayer reads what a block owes from the chains' write
        # indexes and no longer subscribes to PacketReceived: one
        # delivery fewer per packet, 7 493 -> 5 993.
        assert record["delivered"] == record["sent"] == 1_500
        assert record["events_dispatched"] == 5_993
        assert "wallclock-smoke: 1500/1500 packets" in capsys.readouterr().out

    def test_the_wallclock_gate_is_not_a_flag(self):
        from repro.experiments.profiling import check_wallclock

        record = {"outstanding": 0, "packets_per_sec": 69.0,
                  "floor_packets_per_sec": 70.0}
        assert "below the 70 floor" in check_wallclock(record)[0]
        assert check_wallclock({**record, "packets_per_sec": 71.0}) == []
        # The floor is on work done: a run that delivers as fast with
        # fewer events to dispatch is not a slower run.
        assert check_wallclock(
            {**record, "packets_per_sec": 71.0, "events_per_sec": 1.0}) == []
        assert "never delivered" in check_wallclock(
            {**record, "packets_per_sec": 71.0, "outstanding": 3})[0]
        with pytest.raises(SystemExit):
            main(["wallclock-smoke", "--wallclock-floor", "1"])


class TestLinkedBuilder:
    """``build_linked_deployment`` builds, call for call, the worlds of
    the three builders it replaced — pinned from the commit before
    (252.0 s / 1424 events, 198.0 / 1109, 186.0 / 1047), times and event
    counts re-taken when the handshakes' chunked LC updates shrank to
    the quorum prefix (216.0 / 1127, 144.0 / 744, 156.0 / 832) and again
    when their staging transactions went out in one wave (168.0 / 920,
    120.0 / 658, 144.0 / 778); the event counts once more when the host
    chain stopped dispatching slots with an empty mempool (minus the
    254, 189 and 199 ``host.slots.idle`` of each establishment: 168.0 /
    666, 120.0 / 469, 144.0 / 579).  Then, pinned apart, the relayer's
    dead waits went — no 3 s counterparty poll, LC_FINALIZE inside the
    update's wave (168.0 / 593, 126.0 / 431, 126.0 / 469) — and every
    host subscription got an observation-delay stream of its own, which
    redraws every delay in these worlds (180.0 / 616, 120.0 / 422,
    126.0 / 473); then every counterparty-side handshake step rode
    behind its guest header in one counterparty block (the values
    below).  Channels and store roots did not move."""

    @staticmethod
    def pin(dep, channels):
        return (dep.sim.now, dep.sim.dispatched_events(),
                [(str(guest), str(cp)) for guest, cp in channels],
                dep.contract.store.root_hash.hex()[:16])

    def test_soak_shape(self):
        from repro.experiments.profiling import SoakConfig
        from repro.experiments.throughput import build_linked_deployment
        from repro.guest.config import GuestConfig

        config = SoakConfig()
        dep, channels = build_linked_deployment(
            config.seed,
            GuestConfig(delta_seconds=config.delta_seconds,
                        min_stake_lamports=1),
            (config.batch_max_packets, config.batch_flush_seconds),
            config.channels, tracing=config.tracing)
        assert self.pin(dep, channels) == (
            126.0, 549,
            [("channel-0", "channel-0"), ("channel-1", "channel-1"),
             ("channel-2", "channel-2")],
            "08eaf3013d5dde33")

    def test_throughput_point_shape(self):
        from repro.experiments.throughput import (
            ThroughputPointConfig, start_point,
        )
        dep, engine = start_point(ThroughputPointConfig())
        assert self.pin(dep, engine.channels) == (
            90.0, 415,
            [("channel-0", "channel-0"), ("channel-1", "channel-1")],
            "88805ed722a88a5a")
        assert engine.end_time == 90.0 + 300.0 + 2400.0

    def test_chaos_shape_and_explicit_default_host(self):
        from repro.experiments.chaos import ChaosSoakConfig
        from repro.experiments.throughput import build_linked_deployment
        from repro.guest.config import GuestConfig
        from repro.host.chain import HostConfig

        config = ChaosSoakConfig()

        def build(**host):
            return build_linked_deployment(
                config.seed,
                GuestConfig(
                    delta_seconds=config.delta_seconds,
                    epoch_length_host_blocks=config.epoch_length_host_blocks,
                    min_stake_lamports=1),
                (config.batch_max_packets, config.batch_flush_seconds),
                config.channels, validators=config.validators,
                with_fisherman=True, **host)

        expected = (78.0, 408,
                    [("channel-0", "channel-0"), ("channel-1", "channel-1")],
                    "88805ed722a88a5a")
        dep, channels = build()
        assert self.pin(dep, channels) == expected
        assert dep.fisherman is not None and len(dep.validators) == 5
        # ``HostConfig()`` passed explicitly (as the chaos builder did)
        # and ``host=`` omitted (as the soak builder did) are one world.
        assert self.pin(*build(host=HostConfig())) == expected


class TestReplayAuditConfig:
    def test_audit_workload_is_a_throughput_point_by_field_name(self):
        from dataclasses import asdict, fields

        from repro.checkpoint.audit import ReplayAuditConfig
        from repro.experiments.throughput import ThroughputPointConfig

        audit = {field.name for field in fields(ReplayAuditConfig)}
        assert audit - {field.name for field in fields(ThroughputPointConfig)} \
            == {"snapshot_after_events"}
        # The record's ``config`` block keeps its keys.
        assert list(asdict(ReplayAuditConfig())) == [
            "seed", "offered_pps", "duration", "drain_seconds", "channels",
            "batch_max_packets", "block_tx_limit", "snapshot_after_events"]
