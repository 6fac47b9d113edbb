"""Fig. 4 — latency of chunked light-client updates on the guest.

Paper: updates averaged 36.5 host transactions (std 5.8); 50 % finished
under 25 s and 96 % under one minute (§V-A).
"""

import statistics

from conftest import emit
from repro.experiments.report import lc_update_series, render_fig4
from repro.metrics.stats import fraction_below


def extract(evaluation):
    updates = [u for u in evaluation.lc_updates if u.success]
    return [u.transaction_count for u in updates], [u.latency for u in updates]


def test_fig4_lc_update_latency(evaluation, benchmark):
    tx_counts, latencies = benchmark(extract, evaluation)
    emit(render_fig4({"paper": lc_update_series(evaluation)}))

    assert len(latencies) > 30
    # Transaction counts emerge from byte arithmetic near the paper's 36.5.
    assert 30 <= statistics.mean(tx_counts) <= 43
    assert statistics.pstdev(tx_counts) > 0.5  # participation/valset variance
    # Latency shape: tens of seconds, most under a minute.
    assert 0.25 <= fraction_below(latencies, 25.0) <= 0.98
    assert fraction_below(latencies, 60.0) >= 0.90
