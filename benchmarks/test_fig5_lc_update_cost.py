"""Fig. 5 — cost of light-client updates.

Paper: the relayer pays the base fee model — 0.1 cents per transaction
plus 0.1 cents per verified signature; variance tracks the update's data
size and signature count (§V-B).
"""

from conftest import emit
from repro.experiments.report import lc_update_series, render_fig5
from repro.units import lamports_to_cents


def extract(evaluation):
    updates = [u for u in evaluation.lc_updates if u.success]
    return [(lamports_to_cents(u.total_fee),
             0.1 * (u.transaction_count + u.signature_count)) for u in updates]


def test_fig5_lc_update_cost(evaluation, benchmark):
    pairs = benchmark(extract, evaluation)
    emit(render_fig5({"paper": lc_update_series(evaluation)}))

    assert len(pairs) > 30
    # Exact fee decomposition: cost == 0.1c x (txs + signatures).
    for cost, expected in pairs:
        assert abs(cost - expected) < 0.01
    # Variance exists (data size / signer count differ per update).
    costs = [cost for cost, _ in pairs]
    assert max(costs) - min(costs) > 1.0
    # Magnitude: tens of cents per update.
    assert 5.0 < sum(costs) / len(costs) < 40.0
