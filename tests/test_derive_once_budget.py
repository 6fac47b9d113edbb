"""A regression gate on re-derived values that needs no clock.

The digest of a validator set, the fingerprint of a guest block header
and the account set of a host transaction are each a function of an
object nothing assigns to after construction, and each is asked for by
several layers; the payload of a batched delivery is a function of its
frozen operations, sized by the relayer and shipped by the guest API.
They are derived once per instance (:func:`repro.derive.derive_once`;
docs/PERFORMANCE.md, "Derive once"); before, a counterparty re-hashed
its ~190-member set twice per block whether or not stake had moved,
which alone was 40 % of the ``paper_day`` ledger workload.  The counts
below are a function of the code and a seed, so the gate cannot flake
the way a timing would.  ``tests/helpers.py::DerivationAudit`` is the
audit itself, reusable over any run.
"""

from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.simsig import SimSigScheme
from repro.experiments.throughput import build_linked_deployment
from repro.guest.api import Batch
from repro.guest.instructions import BufferedPacketMsg
from repro.lightclient.tendermint import ValidatorSet
from repro.sim import Simulation
from repro.trie.proof import MembershipWitness
from repro.workload import WorkloadEngine, WorkloadSpec

from tests.helpers import DerivationAudit, tap_cold_framings
from tests.test_lc_update_budget import BATCHING, GUEST

BLOCKS = 300


def test_a_counterparty_hashes_a_validator_set_when_it_is_new(monkeypatch):
    framings = tap_cold_framings(monkeypatch)
    with DerivationAudit(methods=((ValidatorSet, "canonical_hash"),)) as audit:
        sim = Simulation(seed=2024)
        chain = CounterpartyChain(sim, SimSigScheme(), CounterpartyConfig())
        sim.run_until(BLOCKS * chain.config.block_seconds)
    assert chain.height == BLOCKS

    headers = [record.header for record in chain.blocks.values()]
    created = ({header.validators_hash for header in headers}
               | {header.next_validators_hash for header in headers})
    # Power churn on about a third of the blocks: the run is not idle.
    assert BLOCKS // 5 < len(created) < BLOCKS // 2
    # One digest per set that ever existed — a churned set's, taken over
    # the preimage it was handed, counts as its one — where there were
    # two per block (``validators_hash``, ``next_validators_hash``)
    # before the digest was kept on the set.
    count = audit.counts["ValidatorSet.canonical_hash"]
    assert count.derivations == count.distinct
    assert len(created) <= count.distinct <= len(created) + 1
    # The member-by-member framing ran twice in the chain's life: for
    # the genesis digest, then for the preimage every later set patches
    # 8 bytes of (once per distinct set, 113 times, before it was carried).
    assert len(framings) == 2

    # Every member is in every digest: a patched preimage is the
    # preimage of the set it belongs to.
    for record in chain.blocks.values():
        cold = ValidatorSet(members=record.validator_set.members)
        assert cold.canonical_hash() == record.header.validators_hash
    # The preimage moved from set to set: one lives, at the head.
    holders = [record.validator_set for record in chain.blocks.values()
               if "_preimage" in record.validator_set.__dict__]
    assert holders in ([], [chain.validator_set()])
    assert "_preimage" in chain.validator_set().__dict__


def test_a_loaded_link_derives_each_value_once_per_instance(monkeypatch):
    """The loaded link of ``tests/test_lc_update_budget.py``: 20 pps of
    counterparty sends over one batching link for ~90 simulated s, here
    with the build and the handshakes inside the audit so that every
    instance starts cold."""
    encodes = {"batches": 0, "witnesses": 0, "entries": 0}

    def counting(owner, name, key, rebind=lambda wrapper: wrapper):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            encodes[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, rebind(wrapper))

    counting(Batch, "of", "batches", staticmethod)
    counting(MembershipWitness, "to_bytes", "witnesses")
    counting(BufferedPacketMsg, "to_bytes", "entries")
    with DerivationAudit() as audit:
        dep, channels = build_linked_deployment(0, GUEST, BATCHING, 1)
        engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=20.0, duration=90.0, drain_seconds=60.0))
        engine.start()
        dep.sim.run_until(engine.end_time)
    assert engine.delivered == engine.sent == 1_800

    for name in ("ValidatorSet.canonical_hash", "GuestBlockHeader.fingerprint",
                 "Transaction.unique_accounts"):
        count = audit.counts[name]
        assert count.derivations == count.distinct, (name, count)
        # Asked for often enough that deriving per call was the waste.
        assert count.calls >= 2 * count.distinct > 0, (name, count)

    # A flush's payload is built once — its witnesses merged and encoded,
    # its operations serialised — then sized by the relayer and shipped
    # by the guest API: two askers, one encoding.  (A flush too large for
    # one bundle would be re-cut; none is here.)
    report = dep.trace_report()
    batched = sum(report.histogram("relay.batch.packets"))
    assert batched >= engine.delivered
    assert encodes["batches"] == report.counter("relay.batches") > 0
    assert encodes["witnesses"] == len(report.histogram("relay.batch.witness_bytes"))
    # One message per batched operation; nothing was delivered singly.
    assert encodes["entries"] == batched
