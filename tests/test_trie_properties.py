"""Property-based tests (hypothesis) for the sealable trie invariants.

These are the adversarial guarantees the paper's security argument rests
on: the trie behaves as a map; the root is a binding commitment; sealing
never changes the root; proofs cannot be transplanted or tampered with.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import Hash
from repro.errors import KeyNotFoundError, ProofError, SealedNodeError, TrieError
from repro.trie import (
    MembershipProof,
    MembershipWitness,
    SealableTrie,
    verify_membership,
    verify_non_membership,
)
from repro.trie.nodes import BranchNode, ExtensionNode, SealedNode
from repro.trie.proof import WitnessBranch, WitnessExtension, WitnessLeaf
from repro.trie.store import ProvableStore, seq_key

# Hashed 32-byte keys, like the provable stores use.
keys = st.binary(min_size=1, max_size=8).map(lambda b: hashlib.sha256(b).digest())
values = st.binary(min_size=0, max_size=64)
entries = st.dictionaries(keys, values, min_size=0, max_size=40)


@given(entries)
def test_trie_behaves_as_map(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    for k, v in mapping.items():
        assert trie.get(k) == v
    assert dict(trie.items()) == mapping


@given(entries)
def test_root_independent_of_insertion_order(mapping):
    a = SealableTrie()
    b = SealableTrie()
    items = list(mapping.items())
    for k, v in items:
        a.set(k, v)
    for k, v in reversed(items):
        b.set(k, v)
    assert a.root_hash == b.root_hash


@given(entries, keys, values)
def test_root_is_binding(mapping, extra_key, extra_value):
    """Tries with different contents have different roots."""
    a = SealableTrie()
    for k, v in mapping.items():
        a.set(k, v)
    b = SealableTrie()
    for k, v in mapping.items():
        b.set(k, v)
    changed = extra_key not in mapping or mapping[extra_key] != extra_value
    b.set(extra_key, extra_value)
    if changed:
        assert a.root_hash != b.root_hash
    else:
        assert a.root_hash == b.root_hash


@given(st.dictionaries(keys, values, min_size=1, max_size=40))
def test_membership_proofs_verify(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    for k in mapping:
        proof = trie.prove(k)
        assert verify_membership(root, proof)
        # Wire round-trip preserves validity.
        assert verify_membership(root, MembershipProof.from_bytes(proof.to_bytes()))


@given(st.dictionaries(keys, values, min_size=1, max_size=40), keys)
def test_absence_proofs_verify(mapping, probe):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    if probe in mapping:
        return
    proof = trie.prove_absence(probe)
    assert verify_non_membership(trie.root_hash, proof)


@given(st.dictionaries(keys, values, min_size=2, max_size=40), st.data())
def test_proof_value_tampering_detected(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    k = data.draw(st.sampled_from(sorted(mapping)))
    proof = trie.prove(k)
    tampered_value = data.draw(values.filter(lambda v: v != mapping[k]))
    forged = MembershipProof(
        key=proof.key, value=tampered_value, steps=proof.steps, leaf_path=proof.leaf_path,
    )
    assert not verify_membership(trie.root_hash, forged)


@given(st.dictionaries(keys, values, min_size=2, max_size=40), st.data())
def test_proof_cannot_be_transplanted(mapping, data):
    """A proof for key A never verifies as a proof for key B."""
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    ks = sorted(mapping)
    a = data.draw(st.sampled_from(ks))
    b = data.draw(st.sampled_from([k for k in ks if k != a]))
    proof = trie.prove(a)
    forged = MembershipProof(
        key=b, value=proof.value, steps=proof.steps, leaf_path=proof.leaf_path,
    )
    assert not verify_membership(trie.root_hash, forged)


@given(st.dictionaries(keys, values, min_size=1, max_size=30), st.data())
@settings(max_examples=50)
def test_sealing_preserves_root_and_blocks_access(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    to_seal = data.draw(st.lists(st.sampled_from(sorted(mapping)), unique=True))
    for k in to_seal:
        trie.seal(k)
        assert trie.root_hash == root
    for k in to_seal:
        try:
            trie.get(k)
            raise AssertionError("sealed key must not be readable")
        except SealedNodeError:
            pass
        except KeyNotFoundError:
            raise AssertionError("sealed key must raise SealedNodeError")
    # Unsealed siblings are untouched unless their path crosses a sealed
    # subtree — with hashed keys that cannot happen for distinct keys.
    for k, v in mapping.items():
        if k not in to_seal:
            assert trie.get(k) == v


@given(st.dictionaries(keys, values, min_size=1, max_size=30), st.data())
@settings(max_examples=50)
def test_delete_then_reinsert_restores_root(mapping, data):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    root = trie.root_hash
    k = data.draw(st.sampled_from(sorted(mapping)))
    trie.delete(k)
    assert not trie.contains(k)
    trie.set(k, mapping[k])
    assert trie.root_hash == root


@given(entries)
def test_empty_after_deleting_everything(mapping):
    trie = SealableTrie()
    for k, v in mapping.items():
        trie.set(k, v)
    for k in mapping:
        trie.delete(k)
    assert trie.root_hash == Hash.zero()
    assert trie.node_count() == 0


# ----------------------------------------------------------------------
# Differential testing against a dict reference model
# ----------------------------------------------------------------------
#
# The trie carries proof memoization and cached branch-child hashes, so
# the risky failure mode is no longer "one operation is wrong" but "a
# cache survives a mutation it should not have".  Driving the real trie
# and a plain-dict model through the same random op sequences — checking
# the root, lookups and proof verifiability after *every* step — is the
# test shape that catches stale-cache bugs.

_POOL = [hashlib.sha256(b"diff-%d" % i).digest() for i in range(12)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_POOL),
                  st.binary(min_size=0, max_size=32)),
        st.tuples(st.just("delete"), st.sampled_from(_POOL)),
        st.tuples(st.just("seal"), st.sampled_from(_POOL)),
    ),
    min_size=1, max_size=20,
)


def _reference_root(live: dict, sealed: dict) -> Hash:
    """Sealing preserves the root, so the model's root is the root of a
    fresh trie holding every committed (live or sealed) entry."""
    fresh = SealableTrie()
    for k, v in {**live, **sealed}.items():
        fresh.set(k, v)
    return fresh.root_hash


@settings(max_examples=220, deadline=None)
@given(_ops, st.data())
def test_differential_against_dict_model(ops, data):
    trie = SealableTrie()
    live: dict = {}    # readable committed entries
    sealed: dict = {}  # committed but sealed away

    for op in ops:
        kind, key = op[0], op[1]
        if kind == "set":
            value = op[2]
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.set(key, value))
            else:
                try:
                    trie.set(key, value)
                    live[key] = value
                except SealedNodeError:
                    # The write path for a *new* key can dead-end at a
                    # sealed leaf standing where the paths diverge.
                    assert sealed and key not in live
        elif kind == "delete":
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.delete(key))
            elif key in live:
                trie.delete(key)
                del live[key]
            else:
                _expect_miss(sealed, lambda: trie.delete(key))
        else:  # seal
            if key in sealed:
                _expect(SealedNodeError, lambda: trie.seal(key))
            elif key in live:
                trie.seal(key)
                sealed[key] = live.pop(key)
            else:
                _expect_miss(sealed, lambda: trie.seal(key))

        # -- after every step, the trie must agree with the model --
        # The root comparison is STRICT: sealing re-paths stubs on
        # collapse, so the incremental root always equals a fresh
        # rebuild of the committed mapping, deletes included.
        root = trie.root_hash
        assert root == _reference_root(live, sealed)
        assert (trie.storage_bytes(), trie.node_count(),
                trie.sealed_count()) == trie.recount_aggregates()
        for k, v in live.items():
            assert trie.get(k) == v
        for k in sealed:
            _expect(SealedNodeError, lambda k=k: trie.get(k))

        if live:
            probe = data.draw(st.sampled_from(sorted(live)), label="prove key")
            proof = trie.prove(probe)
            assert proof.value == live[probe]
            assert verify_membership(root, proof)
            # Memoized re-proof is byte-identical and still verifies.
            assert trie.prove(probe).to_bytes() == proof.to_bytes()
        absent = data.draw(
            st.sampled_from([k for k in _POOL
                             if k not in live and k not in sealed] or [None]),
            label="absence key",
        )
        if absent is not None:
            try:
                assert verify_non_membership(root, trie.prove_absence(absent))
            except SealedNodeError:
                # The absent key's path may dead-end inside a sealed
                # region, where no evidence can be read.
                assert sealed


def test_delete_of_last_live_sibling_of_a_sealed_stub():
    """Deterministic regression for the shape PR 5 papered over: a
    delete that leaves a sealed stub as a branch's lone occupant.
    Sealed stubs now retain their path skeleton, so the branch
    collapses by re-pathing the stub and the incremental root equals a
    fresh rebuild holding only the sealed entry — no divergence."""
    k_sealed = hashlib.sha256(b"stub-kept").digest()
    k_live = hashlib.sha256(b"stub-doomed").digest()
    trie = SealableTrie()
    trie.set(k_sealed, b"kept")
    trie.set(k_live, b"doomed")
    trie.seal(k_sealed)
    root_both = trie.root_hash

    trie.delete(k_live)
    assert not trie.contains(k_live)
    root_after = trie.root_hash
    assert root_after != root_both

    # The collapse normalizes the shape: the commitment matches a
    # fresh trie holding just the surviving (sealed) entry.
    fresh = SealableTrie()
    fresh.set(k_sealed, b"kept")
    assert root_after == fresh.root_hash

    # The deleted key is provably absent — its probe diverges from the
    # re-pathed sealed leaf stub, which still carries path + commitment.
    assert verify_non_membership(root_after, trie.prove_absence(k_live))

    # The sealed entry itself stays unreadable but committed.
    _expect(SealedNodeError, lambda: trie.get(k_sealed))

    # Reinsertion splits the stub back out and restores the exact
    # pre-delete root.
    trie.set(k_live, b"doomed")
    assert trie.root_hash == root_both


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=10, max_value=80))
def test_cached_aggregates_survive_sequenced_churn(window, total):
    """The per-node aggregate caches (storage bytes / live nodes /
    sealed stubs) must track a full recount exactly through the guest's
    real workload shape: monotone sequenced inserts with a trailing
    window of seals and deletes."""
    prefix = hashlib.sha256(b"agg-channel").digest()[:24]
    seq_key = lambda i: prefix + i.to_bytes(8, "big")
    trie = SealableTrie()
    for i in range(total):
        trie.set(seq_key(i), b"receipt-%d" % i)
        if i >= window:
            j = i - window
            if j % 3 == 0:
                trie.delete(seq_key(j))
            else:
                trie.seal(seq_key(j))
        assert (trie.storage_bytes(), trie.node_count(),
                trie.sealed_count()) == trie.recount_aggregates()


# ----------------------------------------------------------------------
# Aggregate differential at every node
# ----------------------------------------------------------------------
#
# A rebuilt branch takes its aggregate from the node it replaces (old -
# old child + new child) when that one had been summed, and stays
# unsummed otherwise.  Which of the two a mutation meets depends on when
# the totals were last asked for, so the same interleavings run under
# three query cadences, and after every op each aggregate a node holds
# must equal a recount of that node's own subtree.

def _subtree_recount(node) -> tuple:
    view = SealableTrie()
    view._root = node
    return view.recount_aggregates()


def _inner_nodes(trie: SealableTrie):
    return [node for node in trie._iter_live_nodes()
            if isinstance(node, (BranchNode, ExtensionNode))]


def _check_held_aggregates(trie: SealableTrie) -> None:
    """Reads ``_agg`` rather than ``aggregates()``: looking must not sum
    a node the cadence has left unsummed."""
    for node in _inner_nodes(trie):
        if node._agg is not None:
            assert node._agg == _subtree_recount(node), node


def _query_and_check_every_node(trie: SealableTrie) -> None:
    assert (trie.storage_bytes(), trie.node_count(),
            trie.sealed_count()) == trie.recount_aggregates()
    for node in _inner_nodes(trie):
        assert node.aggregates() == _subtree_recount(node), node


def _run_under_cadence(ops, cadence: str, rng: random.Random) -> SealableTrie:
    trie = SealableTrie()
    for kind, key, *value in ops:
        try:
            getattr(trie, kind)(key, *value)
        except TrieError:
            pass  # a refused op must leave every held aggregate valid too
        if cadence == "every" or (cadence == "random" and rng.random() < 0.3):
            _query_and_check_every_node(trie)
        _check_held_aggregates(trie)
    _query_and_check_every_node(trie)
    return trie


_CADENCES = ("every", "never", "random")

# Short raw keys beside the hashed pool: a key that is a prefix of
# another puts a value on a branch, shared prefixes make extensions.
_SHAPE_POOL = _POOL[:6] + [
    b"\x12", b"\x12\x34", b"\x12\x35", b"\x12\x34\x56",
    b"\xab\xcd\x01", b"\xab\xcd\x02", b"\xab\xce\x01",
    b"\x50", b"\x51", b"\x52",
]

_shape_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_SHAPE_POOL),
                  st.binary(min_size=0, max_size=32)),
        st.tuples(st.just("delete"), st.sampled_from(_SHAPE_POOL)),
        st.tuples(st.just("seal"), st.sampled_from(_SHAPE_POOL)),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_shape_ops, st.sampled_from(_CADENCES), st.randoms(use_true_random=False))
def test_every_node_aggregate_matches_its_subtree(ops, cadence, rng):
    _run_under_cadence(ops, cadence, rng)


def _branch_value_script():
    """``replacing_value``: a value lands on, changes at and leaves a
    branch that keeps its children."""
    return [("set", b"\x12\x34", b"a"), ("set", b"\x12\x35", b"b"),
            ("set", b"\x12", b"on-branch"), ("set", b"\x12", b"longer value"),
            ("delete", b"\x12"), ("set", b"\x12", b"back"),
            ("delete", b"\x12\x34"), ("delete", b"\x12\x35")]


def _extension_script():
    """Extension split at the head, in the middle and at the tail, then
    the merges back as the diverging keys go."""
    return [("set", b"\xab\xcd\x01", b"a"), ("set", b"\xab\xcd\x02", b"b"),
            ("set", b"\xab\xce\x01", b"mid"), ("set", b"\x1b\xcd\x01", b"head"),
            ("set", b"\xab\xcd\x11", b"tail"),
            ("delete", b"\x1b\xcd\x01"), ("delete", b"\xab\xce\x01"),
            ("delete", b"\xab\xcd\x11"), ("delete", b"\xab\xcd\x02")]


def _sealed_branch_script():
    """A branch sealed whole (collapse to a stub on seal), a key set
    into its empty slot (``_expand_sealed_branch``), deleted again
    (collapse to a stub on delete), beside a live sibling subtree."""
    return [("set", b"\x50", b"a"), ("set", b"\x51", b"b"), ("set", b"\x60", b"c"),
            ("seal", b"\x50"), ("seal", b"\x51"),
            ("set", b"\x52", b"beside"), ("set", b"\x52", b"rewritten"),
            ("delete", b"\x52"),
            ("set", b"\x53", b"again"), ("seal", b"\x53"),
            ("delete", b"\x60")]


@pytest.mark.parametrize("cadence", _CADENCES)
@pytest.mark.parametrize("script", [
    _branch_value_script, _extension_script, _sealed_branch_script])
def test_named_shapes_keep_every_node_aggregate(script, cadence):
    ops = script()
    for seed in range(5):
        trie = _run_under_cadence(ops, cadence, random.Random(seed))
    if script is _branch_value_script:
        assert dict(trie.items()) == {b"\x12": b"back"}
    elif script is _extension_script:
        assert dict(trie.items()) == {b"\xab\xcd\x01": b"a"}
    else:
        # Everything left is sealed: one branch stub behind its prefix.
        root = trie._root
        assert isinstance(root, SealedNode) and root.kind == SealedNode.BRANCH
        assert trie.recount_aggregates() == (0, 0, 1)


def test_named_shapes_reach_the_paths_they_name(monkeypatch):
    """The scripts above are only worth their names if they run the
    code they name."""
    reached = set()

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            reached.add(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(BranchNode, "replacing_value")
    spy(SealableTrie, "_split_extension")
    spy(SealableTrie, "_merge_extension")
    spy(SealableTrie, "_expand_sealed_branch")
    spy(SealedNode, "of_branch")
    for script in (_branch_value_script, _extension_script, _sealed_branch_script):
        _run_under_cadence(script(), "never", random.Random(0))
    assert reached == {"replacing_value", "_split_extension", "_merge_extension",
                       "_expand_sealed_branch", "of_branch"}


# ----------------------------------------------------------------------
# A batch witness is its single proofs, merged
# ----------------------------------------------------------------------
#
# ``MembershipWitness.merge`` carries each node of the union of paths
# once and drops the hash of every child it expands.  Whatever it
# proves, and only that, the single proofs it was merged from prove:
# over the same shape pool (branch values, extensions, sealed stubs
# beside live keys) and over sequenced stores with several channels.

def _provable(trie: SealableTrie, keys) -> dict:
    proofs = {}
    for key in keys:
        try:
            proofs[key] = trie.prove(key)
        except TrieError:
            pass  # absent, sealed away, or a value held on a branch
    return proofs


def _check_witness_against_single_proofs(trie, proofs, subset, probes):
    root = trie.root_hash
    witness = MembershipWitness.merge(proofs[key] for key in subset)
    wire = witness.to_bytes()
    decoded = MembershipWitness.from_bytes(wire)
    assert decoded.node == witness.node and decoded.to_bytes() == wire
    assert witness.root == decoded.root == root
    assert decoded.entries == {key: proofs[key].value for key in subset}
    elsewhere = Hash.of(b"another root")
    for key in probes:
        single = proofs.get(key)
        for value in (single.value if single else b"", b"tampered\x00"):
            # What the key's own path proves, for the keys merged in.
            holds = key in subset and verify_membership(root, MembershipProof(
                key=key, value=value, steps=single.steps,
                leaf_path=single.leaf_path))
            assert decoded.proves(root, key, value) == holds
            assert holds == (key in subset and value == single.value)
            assert not decoded.proves(elsewhere, key, value)
    return witness


@settings(max_examples=250, deadline=None)
@given(_shape_ops, st.data())
def test_witness_proves_exactly_what_its_single_proofs_prove(ops, data):
    trie = SealableTrie()
    for kind, key, *value in ops:
        try:
            getattr(trie, kind)(key, *value)
        except TrieError:
            pass
    proofs = _provable(trie, _SHAPE_POOL)
    if not proofs:
        return
    subset = data.draw(st.sets(st.sampled_from(sorted(proofs)), min_size=1),
                       label="proven keys")
    _check_witness_against_single_proofs(trie, proofs, subset, _SHAPE_POOL)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=40),
       st.data())
def test_witness_over_sequenced_channels_and_sealed_siblings(window, total, data):
    """The guest's real shape: two channels' sequenced entries (two
    ``seq_key`` subtrees under different hashed prefixes) beside a
    hashed path, a trailing window live and everything older sealed
    (lagging by one at least, as ``IbcHost`` seals) — so the proven
    paths' siblings are ``SealedNode`` stubs."""
    store = ProvableStore()
    store.set("connections/connection-0", b"conn")
    prefixes = ("commitments/ports/transfer/channels/channel-0",
                "acks/ports/transfer/channels/channel-7")
    for sequence in range(total):
        for prefix in prefixes:
            store.set_seq(prefix, sequence, b"c-%d" % sequence)
            if sequence >= window:
                store.seal_seq(prefix, sequence - window)
    keys = [seq_key(prefix, sequence)
            for prefix in prefixes for sequence in range(total + 1)]
    proofs = _provable(store.trie, keys)
    assert len(proofs) == 2 * min(window, total)
    if not proofs:
        return
    subset = data.draw(st.sets(st.sampled_from(sorted(proofs)), min_size=1),
                       label="proven keys")
    witness = _check_witness_against_single_proofs(
        store.trie, proofs, subset, keys)
    if len(subset) > 1:
        assert len(witness.to_bytes()) < sum(
            len(proofs[key].to_bytes()) for key in subset)


@settings(max_examples=150, deadline=None)
@given(_shape_ops, _shape_ops, st.data())
def test_proofs_under_two_roots_never_merge(before, after, data):
    trie = SealableTrie()
    for kind, key, *value in before:
        try:
            getattr(trie, kind)(key, *value)
        except TrieError:
            pass
    old_root, old = trie.root_hash, _provable(trie, _SHAPE_POOL)
    for kind, key, *value in after:
        try:
            getattr(trie, kind)(key, *value)
        except TrieError:
            pass
    new = _provable(trie, _SHAPE_POOL)
    if trie.root_hash == old_root or not old or not new:
        return
    mixed = [old[data.draw(st.sampled_from(sorted(old)), label="old key")],
             new[data.draw(st.sampled_from(sorted(new)), label="new key")]]
    for proofs in (mixed, mixed[::-1]):
        with pytest.raises(ProofError):
            MembershipWitness.merge(proofs)


def _witness_shapes(node, shapes=None, top=True) -> set:
    shapes = set() if shapes is None else shapes
    if isinstance(node, WitnessLeaf):
        shapes.add("single leaf" if top else "leaf")
    elif isinstance(node, WitnessExtension):
        shapes.add("extension")
        _witness_shapes(node.child, shapes, False)
    else:
        assert isinstance(node, WitnessBranch)
        expanded = [slot for slot in node.slots
                    if slot is not None and not isinstance(slot, bytes)]
        shapes.add("branch, several expanded" if len(expanded) > 1
                   else "branch, one expanded")
        if node.value is not None:
            shapes.add("branch holding a value")
        if len(expanded) < sum(slot is not None for slot in node.slots):
            shapes.add("branch with a hashed sibling")
        for slot in expanded:
            _witness_shapes(slot, shapes, False)
    return shapes


def test_named_shapes_reach_the_witness_shapes_they_should():
    """The witness properties above are only worth their pools if the
    pools build the witnesses that matter; the named scripts do, one
    witness over every provable key after every step."""
    reached = set()
    for script in (_branch_value_script, _extension_script, _sealed_branch_script):
        trie = SealableTrie()
        keys = sorted({key for _, key, *_ in script()})
        for kind, key, *value in script():
            getattr(trie, kind)(key, *value)
            proofs = _provable(trie, keys)
            if proofs:
                witness = _check_witness_against_single_proofs(
                    trie, proofs, set(proofs), keys)
                reached |= _witness_shapes(witness.node)
    assert reached == {
        "single leaf", "leaf", "extension", "branch, one expanded",
        "branch, several expanded", "branch holding a value",
        "branch with a hashed sibling"}


def _expect(error, thunk):
    try:
        thunk()
    except error:
        return
    raise AssertionError(f"expected {error.__name__}")


def _expect_miss(sealed, thunk):
    """An operation on an absent key must miss: ``KeyNotFoundError``
    normally, or ``SealedNodeError`` when its path hits a sealed node
    first (only possible if something is sealed)."""
    try:
        thunk()
    except KeyNotFoundError:
        return
    except SealedNodeError:
        assert sealed, "SealedNodeError with nothing sealed"
        return
    raise AssertionError("expected the operation to miss")
