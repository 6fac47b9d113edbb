"""The last-lander rule of the chunked light-client update, as properties.

LC_FINALIZE is one more transaction of an update's wave: it names how
many signature batches the update has, and the Guest Contract adopts the
update in whichever transaction — CHUNK, LC_SIG_BATCH or LC_FINALIZE —
leaves the buffer asked to finalise with every chunk and that many
batches in it (docs/PROTOCOL.md, "Light-client update plans").  So for
every plan and every order the host may land it in:

* the client adopts exactly once, in the transaction that lands last,
  and ends where the explicit order (everything, then LC_FINALIZE) ends;
* every strict prefix adopts nothing and leaves the client untouched;
* every refusal the explicit order knows — a miscounted wave, another
  payer's LC_FINALIZE, the §VI-C rate limit, a commit short of 2/3 or of
  1/3 of the trusted set, an equivocating header — leaves the client,
  and the buffer where the explicit order left one, as it did.

Each transaction goes through the host runtime (fee, precompile, compute
meter, rollback) and the kernel is stepped to its receipt, so "lands" is
the host's word for it, not the test's.

Hand mutations of ``ops_staging._finalize_lc_update_if_last`` caught
here and reverted (docs/PERFORMANCE.md, "No dead waits"): finalising at
``batches_seen >= finalize_batches - 1`` (a prefix adopts, or the
completing transaction fails short of 2/3); dropping the call at the end
of ``ops_staging.chunk`` (an order whose last lander is a CHUNK never adopts).
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Deployment, DeploymentConfig
from repro.counterparty.chain import CounterpartyConfig
from repro.crypto.hashing import Hash
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.guest.contract import STAGING_BUFFER_TTL_SECONDS
from repro.host.accounts import Address
from repro.host.fees import BaseFee
from repro.host.transaction import Instruction, SigVerify, Transaction
from repro.lightclient.chunked import plan_paper_update, plan_update_chunks
from repro.lightclient.tendermint import Commit, LightClientUpdate, ValidatorSet
from repro.units import MAX_COMPUTE_UNITS, sol_to_lamports
from repro.validators.profiles import simple_profiles

PLANNERS = {"quorum": plan_update_chunks, "paper": plan_paper_update}
FINALIZE = "finalize"


def world(validators: int, **guest) -> Deployment:
    """A deployment whose counterparty has ``validators`` validators,
    a few counterparty blocks in."""
    dep = Deployment(DeploymentConfig(
        seed=0, tracing=True, profiles=simple_profiles(4),
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1, **guest),
        counterparty=CounterpartyConfig(validator_count=validators)))
    dep.run_for(30.0)
    return dep


def land(dep, data: bytes, entries=(), payer=None):
    """One instruction through the host, stepped to its receipt."""
    receipts = []
    dep.host.submit(Transaction(
        payer=payer or dep.user,
        instructions=(Instruction(
            dep.contract.program_id, (dep.contract.state_account,), data),),
        fee_strategy=BaseFee(), sig_verifies=tuple(entries),
    ), on_result=receipts.append)
    while not receipts:
        assert dep.sim.step()
    return receipts[0]


class Wave:
    """One planned update as named host transactions: ``("chunk", i)``,
    ``("batch", i)`` and ``FINALIZE``."""

    _ids = iter(range(7_000, 10**9))

    def __init__(self, dep, planner, update=None):
        self.dep = dep
        self.client = dep.contract.counterparty_client
        self.update = update or dep.counterparty.light_client_update()
        self.plan = planner(self.update, self.client.trusted_validator_set())
        self.buffer_id = next(self._ids)
        chunks = self.plan.data_chunks
        self.transactions = {
            ("chunk", index): (
                ins.chunk(self.buffer_id, index, len(chunks), data), ())
            for index, data in enumerate(chunks)}
        self.transactions.update({
            ("batch", index): (ins.lc_sig_batch(self.buffer_id), [
                SigVerify(public_key, self.plan.sign_message, signature)
                for public_key, signature in batch])
            for index, batch in enumerate(self.plan.signature_batches)})
        self.staging = list(self.transactions)
        self.shipped = len(self.plan.signature_batches)
        self.name_batches(self.shipped)

    def name_batches(self, batches: int) -> None:
        """What LC_FINALIZE says the update has."""
        self.transactions[FINALIZE] = (
            ins.lc_finalize(self.buffer_id, batches), ())

    def land(self, name, payer=None):
        data, entries = self.transactions[name]
        return land(self.dep, data, entries, payer)

    def state(self):
        """What an adoption changes: the client's height, its consensus
        state there and at the update's height, the set it trusts."""
        client = self.client
        trusted = client.trusted_validator_set()
        heights = (client.latest_height(), self.update.header.height)
        return (heights[0], client.frozen,
                tuple(client.consensus_root(h) for h in heights),
                tuple(client.consensus_timestamp(h) for h in heights),
                trusted and bytes(trusted.canonical_hash()))

    def adoptions(self):
        report = self.dep.trace_report()
        return (report.counter("guest.lc.updates"),
                report.histogram("guest.lc.verified_signers"))

    def buffer(self, payer=None):
        return self.dep.contract._buffers.get(
            (payer or self.dep.user, self.buffer_id))


def order_of(wave: Wave, shuffled, where: str):
    """``shuffled`` is a permutation of the staging transactions;
    LC_FINALIZE goes in first, in the middle or last."""
    at = {"first": 0, "middle": len(shuffled) // 2, "last": len(shuffled)}[where]
    return shuffled[:at] + [FINALIZE] + shuffled[at:]


_explicit = {}


def explicit_outcome(validators: int, planner: str, second: bool):
    """Where the explicit order — chunks, batches, LC_FINALIZE — leaves
    the client (one fresh world per plan shape, cached)."""
    key = (validators, planner, second)
    if key not in _explicit:
        wave = prepared(validators, planner, second)
        for name in wave.staging + [FINALIZE]:
            assert wave.land(name).success
        _explicit[key] = (wave.state(), wave.adoptions())
    return _explicit[key]


def prepared(validators: int, planner: str, second: bool) -> Wave:
    """A wave ready to land.  ``second``: the client already trusts a
    set (adopted in the explicit order), so the default plan stages a
    one-chunk delta and both thresholds apply; otherwise trust on first
    use, the whole set over several chunks."""
    dep = world(validators)
    if second:
        first = Wave(dep, PLANNERS[planner])
        for name in first.staging + [FINALIZE]:
            assert first.land(name).success
        dep.run_for(60.0)       # ten blocks on: stake churn moves the set
    return Wave(dep, PLANNERS[planner])


shapes = st.tuples(st.sampled_from([4, 25, 60, 190]),
                   st.sampled_from(sorted(PLANNERS)), st.booleans())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape=shapes, where=st.sampled_from(["first", "middle", "last"]),
       data=st.data())
def test_any_landing_order_adopts_once_in_the_last_lander(shape, where, data):
    wave = prepared(*shape)
    order = order_of(
        wave, list(data.draw(st.permutations(wave.staging))), where)
    assert 1 <= len(wave.plan.data_chunks) and 1 <= len(wave.plan.signature_batches)
    untouched, nothing = wave.state(), wave.adoptions()
    for name in order[:-1]:
        assert wave.land(name).success, name
        # A strict prefix adopts nothing and leaves the client untouched.
        assert wave.state() == untouched and wave.adoptions() == nothing, name
        assert wave.buffer() is not None
    last = wave.land(order[-1])
    assert last.success, last.error
    assert last.compute_consumed < MAX_COMPUTE_UNITS
    assert wave.client.latest_height() == wave.update.header.height
    assert wave.buffer() is None
    # Exactly once, and exactly what the explicit order adopts.
    state, adoptions = explicit_outcome(*shape)
    assert wave.state() == state
    assert wave.adoptions() == adoptions
    assert adoptions[0] == nothing[0] + 1


@pytest.mark.parametrize("planner", sorted(PLANNERS))
@pytest.mark.parametrize("last", [("chunk", 0), ("batch", 0), FINALIZE])
def test_the_completing_transaction_fits_the_compute_cap(planner, last):
    """190 validators, trust on first use (the whole 7.6 kB set is
    hashed): whichever kind of transaction runs the finalisation does it
    inside one transaction's compute, with most of the cap to spare."""
    wave = prepared(190, planner, False)
    for name in [n for n in wave.staging + [FINALIZE] if n != last]:
        assert wave.land(name).success
    receipt = wave.land(last)
    assert receipt.success and wave.client.latest_height() == wave.update.header.height
    assert receipt.compute_consumed < MAX_COMPUTE_UNITS // 10


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(extra=st.integers(1, 3), where=st.sampled_from(["first", "middle", "last"]),
       data=st.data())
def test_more_batches_named_than_shipped_never_adopts(extra, where, data):
    dep = world(25)
    wave = Wave(dep, plan_update_chunks)
    wave.name_batches(wave.shipped + extra)
    untouched = wave.state()
    for name in order_of(wave, list(data.draw(st.permutations(wave.staging))), where):
        assert wave.land(name).success
        assert wave.state() == untouched
    # The buffer waits for batches that never come, and goes with the
    # first buffer opened past the horizon.
    assert wave.buffer().is_complete() and wave.buffer().finalize_batches
    dep.run_for(STAGING_BUFFER_TTL_SECONDS)
    assert land(dep, ins.chunk(1, 0, 2, b"sweeper")).success
    assert wave.buffer() is None and wave.state() == untouched


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(planner=st.sampled_from(sorted(PLANNERS)), short=st.integers(1, 2),
       where=st.sampled_from(["first", "middle", "last"]), data=st.data())
def test_fewer_batches_named_than_shipped_adopts_only_past_both_thresholds(
        planner, short, where, data):
    """The buffer is complete as soon as ``short`` batches fewer than
    shipped are in.  What is credited by then either crosses the 2/3
    threshold and is adopted on the spot, or does not and fails the
    transaction that completed it, buffer gone — as LC_FINALIZE sent too
    early always did.  Late batches open a buffer of their own and adopt
    nothing."""
    dep = world(60)
    wave = Wave(dep, PLANNERS[planner])
    shipped = wave.shipped
    wave.name_batches(shipped - short)
    order = order_of(wave, list(data.draw(st.permutations(wave.staging))), where)
    untouched = wave.state()
    header = wave.update.header
    valset = wave.update.validator_set
    credited, landed, settled = set(), set(), None
    for name in order:
        receipt = wave.land(name)
        landed.add(name)
        if name[0] == "batch":
            credited |= {key for key, _ in wave.plan.signature_batches[name[1]]}
        batches = sum(n[0] == "batch" for n in landed)
        complete = (FINALIZE in landed and batches >= shipped - short
                    and all(("chunk", i) in landed
                            for i in range(len(wave.plan.data_chunks))))
        if settled is None and complete:
            crosses = (3 * sum(valset.power_of(key) for key in credited)
                       > 2 * valset.total_power)
            assert receipt.success == crosses, receipt.error
            if crosses:
                assert wave.client.latest_height() == header.height
            else:
                assert "signed power" in receipt.error
                assert wave.state() == untouched
            assert wave.buffer() is None
            settled = wave.state()
        elif settled is None:
            assert receipt.success and wave.state() == untouched
        else:
            # A straggler: credited to a fresh buffer nothing will ever
            # complete, the client as the completing transaction left it.
            assert receipt.success and wave.state() == settled
            assert wave.buffer().finalize_batches is None
    assert settled is not None
    assert wave.adoptions()[0] == (settled != untouched)


def test_another_payers_finalize_cannot_arm_the_buffer():
    dep = world(25)
    wave = Wave(dep, plan_update_chunks)
    other = Address.derive("other-relayer")
    dep.host.airdrop(other, sol_to_lamports(10.0))
    untouched = wave.state()
    # Buffers are keyed by payer: the stranger's LC_FINALIZE opens (and
    # arms) a buffer of its own, before or after the wave.
    assert wave.land(FINALIZE, payer=other).success
    for name in wave.staging:
        assert wave.land(name).success
    assert wave.land(FINALIZE, payer=other).success
    assert wave.state() == untouched
    assert wave.buffer().is_complete() and wave.buffer().finalize_batches is None
    assert not wave.buffer(other).chunks
    # The owner's own does.
    assert wave.land(FINALIZE).success
    assert wave.client.latest_height() == wave.update.header.height
    assert wave.buffer() is None and wave.buffer(other) is not None


@pytest.mark.parametrize("last", [("chunk", 0), ("batch", 0), FINALIZE])
def test_rate_limit_refuses_whichever_transaction_completes(last):
    """§VI-C: a second update inside the minimum interval is refused at
    the moment it would be adopted, client and buffer left as they were;
    once the interval is over LC_FINALIZE, sent again, adopts it."""
    dep = world(25, lc_min_update_interval=120.0)
    first = Wave(dep, plan_update_chunks)
    for name in first.staging + [FINALIZE]:
        assert first.land(name).success
    dep.run_for(12.0)
    wave = Wave(dep, plan_update_chunks)
    assert wave.update.header.height > first.update.header.height
    adopted_first = wave.state()
    for name in [n for n in wave.staging + [FINALIZE] if n != last]:
        assert wave.land(name).success
    refused = wave.land(last)
    assert not refused.success and "rate limit" in refused.error
    assert wave.state() == adopted_first
    buffer = wave.buffer()
    assert buffer.is_complete() and buffer.finalize_batches == buffer.batches_seen
    dep.run_for(120.0)
    assert wave.land(FINALIZE).success
    assert wave.client.latest_height() == wave.update.header.height
    assert wave.adoptions()[0] == 2


@pytest.mark.parametrize("last", [("chunk", 0), ("batch", 1), FINALIZE])
def test_a_commit_short_of_two_thirds_fails_the_completing_transaction(last):
    dep = world(60)
    wave = Wave(dep, plan_update_chunks)
    # The heaviest batch stays home, and LC_FINALIZE counts without it.
    shipped = [n for n in wave.staging if n != ("batch", 0)]
    wave.name_batches(wave.shipped - 1)
    untouched = wave.state()
    for name in [n for n in shipped + [FINALIZE] if n != last]:
        assert wave.land(name).success and wave.state() == untouched
    receipt = wave.land(last)
    assert not receipt.success and "does not exceed 2/3" in receipt.error
    assert wave.state() == untouched and wave.buffer() is None


@pytest.mark.parametrize("last", [("chunk", 0), ("batch", 0), FINALIZE])
def test_signers_short_of_a_third_of_the_trusted_set_fail_it_too(last):
    dep = world(25)
    wave = Wave(dep, plan_paper_update)
    # The client trusts a set the commit's signers hold nothing of.
    strangers = ValidatorSet(members=tuple(
        (dep.scheme.keypair_from_seed(bytes([9, index]) + bytes(30)).public_key, 10)
        for index in range(4)))
    wave.client._trusted = strangers
    untouched = wave.state()
    for name in [n for n in wave.staging + [FINALIZE] if n != last]:
        assert wave.land(name).success
    receipt = wave.land(last)
    assert not receipt.success and "need more than 1/3" in receipt.error
    assert wave.state() == untouched and wave.buffer() is None


@pytest.mark.parametrize("last", [("chunk", 0), ("batch", 0), FINALIZE])
def test_an_equivocating_header_lands_as_evidence_not_as_an_update(last):
    dep = world(25)
    first = Wave(dep, plan_paper_update)
    for name in first.staging + [FINALIZE]:
        assert first.land(name).success
    header = replace(first.update.header, app_hash=Hash.of(b"the other fork"))
    fork = LightClientUpdate(
        header=header, validator_set=first.update.validator_set,
        commit=Commit(signatures=tuple(
            (key, dep.counterparty._keypairs[key].sign(header.sign_bytes()))
            for key, _ in first.update.commit.signatures)))
    wave = Wave(dep, plan_paper_update, update=fork)
    evidence = []
    dep.host.subscribe("CounterpartyEquivocation", evidence.append)
    adopted = wave.state()
    for name in [n for n in wave.staging + [FINALIZE] if n != last]:
        assert wave.land(name).success and not wave.client.frozen
    receipt = wave.land(last)
    dep.run_for(5.0)
    # The transaction succeeds so the evidence stays on chain; the
    # client froze on the header it had and adopted nothing.
    assert receipt.success and wave.client.frozen
    (event,) = evidence
    assert event.payload["height"] == header.height and event.payload["proof"]
    assert wave.state()[2:] == adopted[2:] and wave.buffer() is None
    assert wave.adoptions()[0] == 1
