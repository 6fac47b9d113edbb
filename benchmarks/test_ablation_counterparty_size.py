"""Ablation — counterparty validator-set size vs light-client update cost.

Fig. 4/5's transaction counts are driven by how many commit signatures a
counterparty header carries and how large its validator set is.  This
bench sweeps the validator-set size and regenerates the chunk plan for
each, under both update plans (``repro.lightclient.chunked``): the
paper's 36.5-transaction figure is where a Picasso-sized chain (~190
validators) lands on the whole-commit curve, the default plan's ~15 is
the same chain shipping only the quorum prefix and a validator-set
delta, and below the break-even size both fit the same handful of
1232-byte transactions and the default plan saves nothing.
"""

from conftest import emit
from repro.crypto.simsig import SimSigScheme
from repro.crypto.hashing import Hash
from repro.lightclient.chunked import plan_paper_update, plan_update_chunks
from repro.lightclient.tendermint import CometHeader, Commit, LightClientUpdate, ValidatorSet
from repro.metrics.table import format_table

SIZES = (10, 50, 100, 190, 300)


def plans_for(validators: int):
    """(paper plan, default plan) of one fully signed header of a chain
    with the counterparty model's power skew, as a client that trusts
    the same members at one different power would be sent it."""
    scheme = SimSigScheme()
    keys = [scheme.keypair_from_seed(bytes([12]) + i.to_bytes(4, "big") + bytes(27))
            for i in range(validators)]
    members = [(kp.public_key, 1_000_000 // (1 + index // 10))
               for index, kp in enumerate(keys)]
    valset = ValidatorSet(members=tuple(members))
    members[0] = (members[0][0], members[0][1] + 10_000)
    trusted = ValidatorSet(members=tuple(members))
    header = CometHeader(
        chain_id="sweep-1", height=10, time=60.0, app_hash=Hash.of(b"app"),
        validators_hash=valset.canonical_hash(),
        next_validators_hash=valset.canonical_hash(),
    )
    message = header.sign_bytes()
    commit = Commit(signatures=tuple((kp.public_key, kp.sign(message)) for kp in keys))
    update = LightClientUpdate(header, commit, valset)
    return plan_paper_update(update, trusted), plan_update_chunks(update, trusted)


def run():
    plans = {n: plans_for(n) for n in range(1, max(SIZES) + 1)}
    # The last size at which the default plan saves nothing.
    break_even = max(
        n for n, (paper, default) in plans.items()
        if default.transaction_count >= paper.transaction_count)
    return {n: plans[n] for n in SIZES}, break_even


def cents(plan) -> str:
    return f"{0.1 * (plan.transaction_count + plan.signature_count):.1f}"


def test_ablation_counterparty_size(benchmark):
    plans, break_even = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["validators", "paper txs", "signatures", "cents",
         "default txs", "signatures", "cents"],
        [[str(n), str(paper.transaction_count), str(paper.signature_count),
          cents(paper), str(default.transaction_count),
          str(default.signature_count), cents(default)]
         for n, (paper, default) in sorted(plans.items())],
        title="Ablation - counterparty size vs LC update cost, both plans "
              "(Fig. 4/5 driver)",
    ))
    emit(f"  break-even under the 1232-byte cap: up to {break_even} "
         f"validators some set size costs the same under both plans; "
         f"above, the default plan is always smaller")

    for column in (0, 1):
        # Monotone in the set size...
        counts = [plans[n][column].transaction_count for n in SIZES]
        assert counts == sorted(counts)
    # ...roughly linear for the whole commit (each validator adds a
    # signature + set bytes)...
    assert plans[300][0].transaction_count > 2.5 * plans[100][0].transaction_count
    # ...and the Picasso-sized point sits in the paper's 36.5 regime,
    # the default plan under half of it.
    assert 30 <= plans[190][0].transaction_count <= 43
    assert plans[190][1].transaction_count <= 17
    # A handful of validators fit one chunk and one batch either way.
    assert plans[10][0].transaction_count == plans[10][1].transaction_count
    assert 10 <= break_even < 50
