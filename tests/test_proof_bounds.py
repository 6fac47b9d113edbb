"""Property tests bounding proof shape and size.

Proof size is an economic quantity in this system (it decides how many
1232-byte host transactions a delivery needs), so its bounds are worth
pinning: steps never exceed the key's nibble length, serialized size is
linear in the step count, and growth with the store is logarithmic.
"""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.trie import SealableTrie
from repro.trie.proof import BranchStep, ExtensionStep

keys = st.binary(min_size=1, max_size=8).map(lambda b: hashlib.sha256(b).digest())


@given(st.sets(keys, min_size=1, max_size=60), st.data())
def test_steps_bounded_by_key_nibbles(key_set, data):
    trie = SealableTrie()
    for key in key_set:
        trie.set(key, key[:8])
    probe = data.draw(st.sampled_from(sorted(key_set)))
    proof = trie.prove(probe)
    # A 32-byte key has 64 nibbles; every step consumes at least one.
    assert len(proof.steps) <= 64
    consumed = sum(
        len(step.path) if isinstance(step, ExtensionStep) else 1
        for step in proof.steps
    )
    assert consumed + len(proof.leaf_path) == 64


@given(st.sets(keys, min_size=2, max_size=60), st.data())
def test_proof_bytes_linear_in_branch_steps(key_set, data):
    trie = SealableTrie()
    for key in key_set:
        trie.set(key, b"v")
    probe = data.draw(st.sampled_from(sorted(key_set)))
    proof = trie.prove(probe)
    branch_steps = sum(1 for s in proof.steps if isinstance(s, BranchStep))
    size = len(proof.to_bytes())
    # Sparse wire format: a branch step carries a 2-byte occupancy bitmap
    # plus 32 B per *non-zero* sibling (at most 15), so it costs between
    # 34 B (two-child branch) and ~485 B (full branch) plus framing.
    assert size <= 600 * branch_steps + 250
    assert size >= 34 * branch_steps


def test_logarithmic_growth():
    """Growing the store 16x should add roughly one branch step: one
    store grown to 16^4 keys, its first key's proof measured at every
    power of 16 on the way."""
    trie = SealableTrie()
    target = None
    depths = []
    for index in range(16 ** 4):
        key = hashlib.sha256(b"log" + index.to_bytes(8, "big")).digest()
        trie.set(key, b"v")
        if index == 0:
            target = key
        if index + 1 in (16, 16 ** 2, 16 ** 3, 16 ** 4):
            depths.append(sum(1 for s in trie.prove(target).steps
                              if isinstance(s, BranchStep)))
    for small, large in zip(depths, depths[1:]):
        assert 0 <= large - small <= 3


@given(st.sets(keys, min_size=1, max_size=40), keys)
def test_absence_proofs_no_bigger_than_membership(key_set, probe):
    if probe in key_set:
        return
    trie = SealableTrie()
    for key in key_set:
        trie.set(key, b"v")
    absence = trie.prove_absence(probe)
    longest_membership = max(
        len(trie.prove(key).to_bytes()) for key in key_set
    )
    # Absence terminates at (or above) where a membership proof would:
    # allow evidence overhead (a full 16-hash branch is 512 B + framing).
    assert len(absence.to_bytes()) <= longest_membership + 600
