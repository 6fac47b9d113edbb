"""A regression gate on the size of a chunked light-client update that
needs no clock and no deployment.

A default ``CounterpartyConfig`` chain (190 validators, ~85 % commit
participation, power churn on a third of its blocks) is followed for 50
updates by a ``TendermintLightClient`` that adopts exactly what each plan
ships, as the Guest Contract would.  The transaction counts are byte
arithmetic over a seeded chain, so the gate cannot flake; what it guards
is docs/PERFORMANCE.md, "Ship only the quorum": the default plan stays
near 15 host transactions and the paper plan stays Fig. 4's ~36.
"""

from statistics import mean, median

from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.simsig import SimSigScheme
from repro.errors import ClientError
from repro.lightclient.chunked import (
    plan_paper_update,
    plan_update_chunks,
    usable_chunk_bytes,
)
from repro.lightclient.tendermint import TendermintLightClient, ValidatorSet
from repro.sim import Simulation

UPDATES = 50
#: Counterparty blocks between updates: ``paper_day``'s ~260 s mean gap
#: between counterparty sends, in 6 s blocks, so the trusted set has
#: churned by a dozen or so power changes each time, as it has there.
BLOCKS_BETWEEN = 40


def follow(planner, seed=2024):
    """[(plan, commit size)] over ``UPDATES`` heights, each adopted from
    the shipped signatures before the next is planned."""
    sim = Simulation(seed=seed)
    chain = CounterpartyChain(sim, SimSigScheme(), CounterpartyConfig())
    client = TendermintLightClient(chain.config.chain_id,
                                   ValidatorSet(members=()))
    block = chain.config.block_seconds
    plans = []
    while len(plans) < UPDATES:
        sim.run_until(sim.now + BLOCKS_BETWEEN * block)
        while True:
            update = chain.light_client_update()
            plan = planner(update, client.trusted_validator_set())
            shipped = {public_key: signature
                       for batch in plan.signature_batches
                       for public_key, signature in batch}
            try:
                client.apply_verified(update.header, set(shipped),
                                      update.validator_set, signatures=shipped)
                break
            except ClientError:
                # About one commit in a hundred is signed by 70 % of the
                # validators holding under 2/3 of the power.  Either plan
                # ships it whole, the client refuses it, and the relayer
                # moves on to the next block.
                assert plan.signature_count == len(update.commit)
                sim.run_until(sim.now + block)
        assert client.latest_height() == update.header.height
        plans.append((plan, len(update.commit)))
    return plans


def test_default_plan_stays_near_fifteen_transactions():
    plans = follow(plan_update_chunks)
    # Reads 14.7 transactions, 0.44 of the signatures, 215 staged bytes.
    assert mean(plan.transaction_count for plan, _ in plans) <= 17
    shipped = sum(plan.signature_count for plan, _ in plans)
    assert shipped <= 0.55 * sum(commit for _, commit in plans)
    staged = [sum(map(len, plan.data_chunks)) for plan, _ in plans]
    assert median(staged) <= usable_chunk_bytes()
    # Only the first update (trust on first use) uploads the set whole.
    assert [len(plan.data_chunks) > 1 for plan, _ in plans] == (
        [True] + [False] * (UPDATES - 1))


def test_paper_plan_stays_in_the_figure_4_range():
    plans = follow(plan_paper_update)
    # Reads 36.7.
    assert 30 <= mean(plan.transaction_count for plan, _ in plans) <= 43
    assert all(plan.signature_count == commit for plan, commit in plans)
