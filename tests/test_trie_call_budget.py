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
"""

import cProfile
import os
import pstats

import pytest

import repro.trie
from repro.experiments.state import StatePointConfig, run_state_point
from repro.trie.nodes import BranchNode, ExtensionNode

LIFECYCLES = 2_000
#: Small enough that the scheduler starts sealing after ~250 lifecycles
#: and then holds the store there, as the ledger's 256 KiB does at 25 000.
RENT_BUDGET_BYTES = 32_768
#: 637 before the second pass, 207 after it, 186 with in-place edits.
MAX_TRIE_CALLS_PER_LIFECYCLE = 300
#: Branch + extension allocations: 20.6 + 6.0 while every mutation
#: copied its path, 0.20 + 0.03 with in-place edits of owned nodes.
MAX_NODE_ALLOCATIONS_PER_LIFECYCLE = 1.0


def _trie_layer_calls(profile: cProfile.Profile) -> int:
    layer = os.path.dirname(repro.trie.__file__) + os.sep
    return sum(calls for (filename, _line, _name), (_prim, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if filename.startswith(layer))


def _allocations(profile: cProfile.Profile, *classes: type) -> int:
    inits = {(init.co_filename, init.co_firstlineno)
             for init in (cls.__init__.__code__ for cls in classes)}
    return sum(calls for (filename, line, _name), (_prim, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if (filename, line) in inits)


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
