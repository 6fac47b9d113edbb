"""A regression gate on the trie hot path that needs no clock.

Runs ``experiments.state.run_state_point`` — the op mix the perf
ledger's ``state_horizon`` replays (3 sets, 1 delete, 2 seal offers, a
rent-aware drain and the ``storage_bytes()`` reads per lifecycle) —
under ``cProfile`` and bounds the number of Python calls the trie layer
makes per packet lifecycle.  The count is a function of the code alone,
so the gate cannot flake the way a timing would; what it guards is
docs/PERFORMANCE.md, "Trie, second pass": a store mutation costs
O(depth) calls, not O(16 x depth).  The same profile counts the branch
and extension nodes the mix allocates ("Copy only what a snapshot can
see"): the mix takes no snapshot, so the trie owns every node it
edits, and a mutation allocates only where a split makes a new node.
A third gate counts ``Hash`` objects on the proof path ("A proof stays
in its wire form"): prove, encode, decode and verify build one per
folded level, not one per sibling.
"""

import cProfile
import os
import pstats

import pytest

import repro.trie
from repro.crypto.hashing import Hash
from repro.experiments.state import StatePointConfig, run_state_point
from repro.trie.nodes import BranchNode, ExtensionNode
from repro.trie.proof import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
    verify_membership,
    verify_non_membership,
)
from repro.trie.store import ProvableStore, seq_key

LIFECYCLES = 2_000
#: Small enough that the scheduler starts sealing after ~250 lifecycles
#: and then holds the store there, as the ledger's 256 KiB does at 25 000.
RENT_BUDGET_BYTES = 32_768
#: 637 before the second pass, 207 after it, 186 with in-place edits.
MAX_TRIE_CALLS_PER_LIFECYCLE = 300
#: Branch + extension allocations: 20.6 + 6.0 while every mutation
#: copied its path, 0.20 + 0.03 with in-place edits of owned nodes.
MAX_NODE_ALLOCATIONS_PER_LIFECYCLE = 1.0
#: ``Hash`` objects a proof round trip may build beyond one per folded
#: level: a membership's value commitment and leaf hash; an absence's
#: evidence digest, decoded and folded.  The mix below builds 3 887
#: against a budget of 4 513; it built 19 067 (37 per proof) while every
#: decoded sibling was a ``Hash``.
MAX_HASHES_PER_PROOF_BEYOND_LEVELS = 3


def _trie_layer_calls(profile: cProfile.Profile) -> int:
    layer = os.path.dirname(repro.trie.__file__) + os.sep
    return sum(calls for (filename, _line, _name), (_prim, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if filename.startswith(layer))


def _calls(profile: cProfile.Profile, *functions) -> int:
    codes = {(code.co_filename, code.co_firstlineno)
             for code in (function.__code__ for function in functions)}
    return sum(calls for (filename, line, _name), (_prim, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if (filename, line) in codes)


def _allocations(profile: cProfile.Profile, *classes: type) -> int:
    return _calls(profile, *(cls.__init__ for cls in classes))


@pytest.fixture(scope="module")
def profiled_mix():
    config = StatePointConfig(
        scheduler="rent-aware", packets=LIFECYCLES,
        rent_budget_bytes=RENT_BUDGET_BYTES, sample_every=LIFECYCLES)
    profile = cProfile.Profile()
    profile.enable()
    try:
        final = run_state_point(config)["final"]
    finally:
        profile.disable()
    return final, profile


def test_trie_calls_per_lifecycle_stay_within_budget(profiled_mix):
    final, profile = profiled_mix

    # The mix did what it says: it sealed, it held the budget, and the
    # totals every drain read are the true ones.
    assert final["sealed_by_scheduler"] > LIFECYCLES
    assert final["live_bytes"] <= RENT_BUDGET_BYTES + 4_096
    assert final["recount_ok"]

    per_lifecycle = _trie_layer_calls(profile) / LIFECYCLES
    assert per_lifecycle <= MAX_TRIE_CALLS_PER_LIFECYCLE, (
        f"{per_lifecycle:.1f} trie-layer calls per lifecycle")


def test_node_allocations_per_lifecycle_stay_within_budget(profiled_mix):
    _, profile = profiled_mix
    per_lifecycle = _allocations(profile, BranchNode, ExtensionNode) / LIFECYCLES
    assert per_lifecycle <= MAX_NODE_ALLOCATIONS_PER_LIFECYCLE, (
        f"{per_lifecycle:.2f} branch + extension allocations per lifecycle: "
        f"a mutation copies nodes its trie owns.  Only snapshot() may "
        f"retire the edit token (repro.trie.nodes)")


def test_a_proof_round_trip_builds_one_hash_per_folded_level():
    """Prove -> ``to_bytes`` -> ``from_bytes`` -> verify over a 3 000-entry
    store: memberships across three sequenced families (a third of one
    sealed), absences past their ends, and one witness per family."""
    prefixes = [f"commitments/ports/transfer/channels/channel-{i}"
                for i in range(3)]
    store = ProvableStore()
    for sequence in range(1_000):
        for prefix in prefixes:
            store.set_seq(prefix, sequence, b"commitment-%d" % sequence)
    for sequence in range(300):
        store.seal_seq(prefixes[0], sequence)
    root = store.root_hash  # every node hashed before the count
    live = [(prefix, sequence) for prefix in prefixes
            for sequence in range(300 if prefix == prefixes[0] else 0, 1_000, 7)]
    absent = [(prefix, sequence) for prefix in prefixes
              for sequence in range(1_000, 1_040)]

    profile = cProfile.Profile()
    profile.enable()
    levels = 0
    for prefix, sequence in live:
        proof = MembershipProof.from_bytes(store.prove_seq(prefix, sequence).to_bytes())
        assert verify_membership(root, proof)
        levels += len(proof.steps)
    for prefix, sequence in absent:
        proof = NonMembershipProof.from_bytes(
            store.prove_seq_absence(prefix, sequence).to_bytes())
        assert verify_non_membership(root, proof)
        levels += len(proof.steps)
    folded = entries = 0
    for prefix in prefixes:
        witness = MembershipWitness.from_bytes(MembershipWitness.merge(
            store.prove_seq(prefix, sequence) for sequence in range(970, 1_000)
        ).to_bytes())
        assert all(witness.proves(root, seq_key(prefix, sequence),
                                  b"commitment-%d" % sequence)
                   for sequence in range(970, 1_000))
        folded += witness.node_count
        entries += len(witness.entries)
    profile.disable()

    proofs = len(live) + len(absent)
    hashes = _calls(profile, Hash.__post_init__)
    # A witness folds twice (the merge checks its claims, the decode
    # folds again): one hash per node, and a leaf's value commitment.
    budget = (levels + MAX_HASHES_PER_PROOF_BEYOND_LEVELS * proofs
              + 2 * (folded + entries))
    assert hashes <= budget, (
        f"{hashes} Hash objects over {proofs} proofs ({levels} folded "
        f"levels) and {len(prefixes)} witnesses: a decoded sibling is a "
        f"Hash again (repro.trie.proof)")
