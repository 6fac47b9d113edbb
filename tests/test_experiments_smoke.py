"""Smoke tests for the experiment harness itself (tiny configurations).

The benchmarks run the full-size experiments; these tests make the
harness code part of the ordinary suite with small/fast parameters, and
pin the properties the renderers rely on (fields present, counts sane,
determinism under a seed).
"""

import pytest

from repro.experiments import report
from repro.experiments.ablations import (
    adaptive_fee_comparison,
    delta_sweep,
    fee_strategy_tradeoff,
    quorum_sweep,
)
from repro.experiments.blocks import BlockIntervalConfig, BlockIntervalRun
from repro.experiments.evaluation import EvaluationConfig, EvaluationRun
from repro.experiments.lightclient_cost import light_client_cost_comparison
from repro.experiments.storage import measure_capacity, sealing_ablation


@pytest.fixture(scope="module")
def small_evaluation():
    return EvaluationRun(EvaluationConfig(
        seed=123,
        duration=2 * 3600.0,
        send_mean_gap=300.0,
        cp_send_mean_gap=600.0,
        outage_seconds=300.0,
    )).execute()


class TestEvaluationHarness:
    def test_sends_recorded_with_latency_and_cost(self, small_evaluation):
        assert len(small_evaluation.sends) >= 10
        assert small_evaluation.send_latencies()
        assert small_evaluation.send_costs_usd()
        for record in small_evaluation.sends:
            if record.latency is not None:
                assert record.latency > 0

    def test_every_finalised_send_is_attributed_to_its_block(
            self, small_evaluation):
        # The Fig. 2 decomposition (benchmarks/test_latency_decomposition.py)
        # needs both stages of every finalised send, early ones included.
        finalised = [r for r in small_evaluation.sends
                     if r.finalised_time is not None]
        assert len(finalised) >= 10
        for record in finalised:
            assert record.wait_for_block is not None
            assert record.wait_for_quorum is not None
            assert record.wait_for_block >= 0 and record.wait_for_quorum >= 0

    def test_both_strategies_present(self, small_evaluation):
        strategies = {r.strategy for r in small_evaluation.sends}
        assert strategies == {"priority", "bundle"}

    def test_lc_updates_have_consistent_fields(self, small_evaluation):
        for update in small_evaluation.lc_updates:
            assert update.transaction_count >= 3
            assert update.latency >= 0
            if update.success:
                assert update.signature_count > 0

    def test_validator_rows_cover_the_set(self, small_evaluation):
        assert len(small_evaluation.validator_rows) == 17
        assert small_evaluation.silent_validators == 7

    def test_renderers_produce_text(self, small_evaluation):
        for renderer in (report.render_fig2, report.render_fig3,
                         report.render_receive_packet, report.render_table1):
            text = renderer(small_evaluation)
            assert isinstance(text, str) and len(text) > 40
        series = report.lc_update_series(small_evaluation)
        for renderer in (report.render_fig4, report.render_fig5):
            text = renderer({"paper": series})
            assert isinstance(text, str) and len(text) > 40
            assert "default plan" not in text
            assert "default plan" in renderer({"paper": series,
                                               "quorum": series})

    def test_deterministic_under_seed(self):
        def run():
            results = EvaluationRun(EvaluationConfig(
                seed=321, duration=1_800.0, send_mean_gap=200.0,
                cp_send_mean_gap=900.0, outage_seconds=120.0,
            )).execute()
            return (len(results.sends),
                    tuple(round(l, 6) for l in results.send_latencies()),
                    tuple(u.transaction_count for u in results.lc_updates))

        assert run() == run()


class TestBlockIntervalHarness:
    def test_small_run(self):
        results = BlockIntervalRun(BlockIntervalConfig(
            seed=7, duration=6 * 3600.0, delta_seconds=900.0,
            send_mean_gap=650.0, outage_seconds=600.0,
        )).execute()
        assert results.total_blocks > 5
        assert len(results.intervals) == results.total_blocks - 1
        # With gap 650 s and Delta 900 s, both regimes appear.
        assert results.at_delta_cutoff >= 1
        assert any(i < 900.0 for i in results.intervals)
        text = report.render_fig6(results)
        assert "cut-off" in text


class TestThroughputHarness:
    def test_point_record_is_json_ready(self):
        from repro.experiments.throughput import (
            ThroughputPointConfig, run_throughput_point,
        )
        record = run_throughput_point(ThroughputPointConfig(
            seed=5, offered_pps=2.0, duration=20.0, drain_seconds=600.0,
            channels=1, batch_max_packets=4,
        ))
        assert record["sent"] > 0
        assert record["delivered"] == record["sent"]
        assert record["outstanding"] == 0
        assert record["sustained_pps"] > 0
        assert record["latency_p50_s"] <= record["latency_p95_s"]
        import json
        json.dumps(record)  # the benchmark writes this verbatim

    def test_check_smoke_flags_regressions(self):
        from repro.experiments.throughput import check_smoke
        point = {
            "offered_pps": 8.0, "batch_max_packets": 1, "sent": 10,
            "committed": 10, "delivered": 10, "send_failures": 0,
            "sustained_pps": 5.0, "latency_p50_s": 1.0,
            "latency_p95_s": 2.0, "latency_p99_s": 3.0,
            "relayer_fee_lamports": 1_000, "fee_lamports_per_packet": 100.0,
        }
        batched = dict(point, batch_max_packets=16, sustained_pps=10.0,
                       fee_lamports_per_packet=50.0)
        results = {"offered_loads": [8.0], "batch_sizes": [1, 16],
                   "points": [point, batched]}
        assert check_smoke(results) == []
        slow = dict(batched, sustained_pps=5.5)
        assert check_smoke({**results, "points": [point, slow]})
        undelivered = dict(point, delivered=9)
        assert check_smoke({**results, "points": [undelivered, batched]})
        assert check_smoke({**results,
                            "points": [point, {"offered_pps": 8.0}]})

    def test_check_smoke_flags_per_packet_proofs(self):
        """The smoke sweep's own two records: batched fee per packet is
        0.31 x the unbatched with one witness per proof height, and
        was 0.60 x with one path per packet."""
        from repro.experiments.throughput import check_smoke
        point = {
            "offered_pps": 12.0, "batch_max_packets": 1, "sent": 720,
            "committed": 720, "delivered": 720, "send_failures": 0,
            "sustained_pps": 5.0, "latency_p50_s": 40.0,
            "latency_p95_s": 84.0, "latency_p99_s": 90.0,
            "relayer_fee_lamports": 12_739_680,
            "fee_lamports_per_packet": 17_694.0,
        }
        results = {"offered_loads": [12.0], "batch_sizes": [1, 16]}
        witness = dict(point, batch_max_packets=16, sustained_pps=9.326,
                       fee_lamports_per_packet=5_548.0)
        per_packet = dict(witness, sustained_pps=8.780,
                          fee_lamports_per_packet=10_660.0)
        assert check_smoke({**results, "points": [point, witness]}) == []
        (failure,) = check_smoke({**results, "points": [point, per_packet]})
        assert "0.60x the unbatched" in failure


class TestStorageHarness:
    def test_capacity_fields(self):
        capacity = measure_capacity(sample=2_000)
        assert capacity.pairs_in_account > 50_000
        assert 50 < capacity.bytes_per_pair < 200
        assert capacity.deposit_usd > 10_000

    def test_ablation_trajectories_aligned(self):
        results = sealing_ablation(packets=600, live_window=32, sample_every=50)
        assert len(results.sealed_bytes_trajectory) == len(results.plain_bytes_trajectory)
        assert results.growth_ratio > 3


class TestAblationHarnesses:
    def test_delta_sweep_small(self):
        points = delta_sweep(deltas=(300.0, 1_200.0), duration=2 * 3600.0,
                             send_mean_gap=1_500.0)
        assert len(points) == 2
        small, large = points
        assert small.blocks >= large.blocks

    def test_fee_tradeoff_small(self):
        points = fee_strategy_tradeoff(congestion=0.6, samples=40)
        names = {p.name for p in points}
        assert names == {"base", "priority", "bundle"}

    def test_adaptive_fee_small(self):
        points = adaptive_fee_comparison(congestion_levels=(0.2,), samples=30)
        (point,) = points
        assert point.adaptive_cost_usd < point.fixed_cost_usd

    def test_quorum_sweep_small(self):
        from fractions import Fraction
        points = quorum_sweep(fractions=(Fraction(2, 3),), validators=6,
                              duration=1_800.0)
        (point,) = points
        assert point.finalisation_latency.count > 2

    def test_lightclient_cost_small(self):
        guest, tendermint = light_client_cost_comparison(
            guest_validators=10, tendermint_validators=60, headers=5,
        )
        assert guest.signatures_verified == 10
        assert tendermint.signatures_verified == 60
        assert guest.update_bytes < tendermint.update_bytes
