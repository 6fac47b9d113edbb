"""Model-based stateful fuzzing of the sealable trie.

A hypothesis RuleBasedStateMachine drives interleaved set / delete /
seal operations against both the trie and a reference dict model, while
checking the §III-A invariants at every step:

* the trie agrees with the model on every live key;
* sealed keys always raise SealedNodeError and can never be rewritten;
* sealing never changes the root commitment;
* membership proofs for live keys verify; deleted keys prove absent;
* the root is a function of the live+sealed content only;
* a snapshot is frozen: each view keeps its root, its ``get`` answers
  and proofs that verify against that root whatever the live trie does
  afterwards, and writing into a view leaves the live trie and every
  other view unchanged.

Sealing follows the documented safe discipline (monotone sequenced keys,
sealed only behind the contiguous watermark), as the Guest Contract
uses it.
"""

import hashlib
from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import KeyNotFoundError, SealedNodeError
from repro.trie import SealableTrie, verify_membership, verify_non_membership

_PREFIX = hashlib.sha256(b"stateful-channel").digest()[:24]


def seq_to_key(sequence: int) -> bytes:
    return _PREFIX + sequence.to_bytes(8, "big")


#: Sequences written only into views, far above any the live trie uses.
_VIEW_ONLY = 1 << 32
MAX_VIEWS = 4


@dataclass
class View:
    """A snapshot and what it must keep answering."""

    trie: SealableTrie
    root: object
    model: dict[int, bytes]
    sealed: set[int]
    writes: int = 0


class TrieMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.trie = SealableTrie()
        self.model: dict[int, bytes] = {}     # live sequence -> value
        self.sealed: set[int] = set()
        self.next_seq = 0
        self.views: list[View] = []

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(value=st.binary(min_size=1, max_size=16))
    def insert_next(self, value):
        """Append the next sequenced entry (how receipts arrive)."""
        self.trie.set(seq_to_key(self.next_seq), value)
        self.model[self.next_seq] = value
        self.next_seq += 1

    @rule(value=st.binary(min_size=1, max_size=16), data=st.data())
    @precondition(lambda self: self.model)
    def update_existing(self, value, data):
        seq = data.draw(st.sampled_from(sorted(self.model)))
        self.trie.set(seq_to_key(seq), value)
        self.model[seq] = value

    @rule(data=st.data())
    @precondition(lambda self: self.model)
    def delete_existing(self, data):
        seq = data.draw(st.sampled_from(sorted(self.model)))
        self.trie.delete(seq_to_key(seq))
        del self.model[seq]

    @rule(data=st.data())
    @precondition(lambda self: any(self._sealable()))
    def seal_safe(self, data):
        """Seal an entry behind the contiguous watermark (the safe rule)."""
        seq = data.draw(st.sampled_from(self._sealable()))
        root_before = self.trie.root_hash
        self.trie.seal(seq_to_key(seq))
        assert self.trie.root_hash == root_before  # sealing is root-neutral
        self.sealed.add(seq)
        del self.model[seq]

    @rule()
    @precondition(lambda self: len(self.views) < MAX_VIEWS)
    def snapshot(self):
        """Take a view, as a chain does at each block."""
        self.views.append(View(self.trie.snapshot(), self.trie.root_hash,
                               dict(self.model), set(self.sealed)))

    @rule(value=st.binary(min_size=1, max_size=16), data=st.data())
    @precondition(lambda self: self.views)
    def write_into_view(self, value, data):
        """Update or add an entry in one view: the live trie and every
        other view must not see it."""
        view = data.draw(st.sampled_from(self.views))
        seq = data.draw(st.sampled_from(
            sorted(view.model) + [_VIEW_ONLY + view.writes]))
        live_root = self.trie.root_hash
        view.trie.set(seq_to_key(seq), value)
        view.model[seq] = value
        view.root = view.trie.root_hash
        view.writes += 1
        assert self.trie.root_hash == live_root

    def _sealable(self) -> list[int]:
        """Sequences with both neighbours present/sealed below watermark:
        every j <= seq+1 exists (live or sealed) — the lagged rule."""
        present = set(self.model) | self.sealed
        out = []
        for seq in self.model:
            if all(j in present for j in range(0, seq + 2)):
                out.append(seq)
        return out

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def live_keys_agree_with_model(self):
        for seq, value in self.model.items():
            assert self.trie.get(seq_to_key(seq)) == value

    @invariant()
    def sealed_keys_inaccessible(self):
        for seq in self.sealed:
            try:
                self.trie.get(seq_to_key(seq))
                raise AssertionError(f"sealed sequence {seq} is readable")
            except SealedNodeError:
                pass

    @invariant()
    def live_proofs_verify(self):
        root = self.trie.root_hash
        for seq in list(self.model)[:5]:  # sample to keep runs fast
            proof = self.trie.prove(seq_to_key(seq))
            assert verify_membership(root, proof)

    @invariant()
    def future_key_provably_absent(self):
        probe = seq_to_key(self.next_seq + 10)
        try:
            proof = self.trie.prove_absence(probe)
        except SealedNodeError:
            raise AssertionError("future sequence blocked by a sealed node")
        assert verify_non_membership(self.trie.root_hash, proof)

    @invariant()
    def views_stay_frozen(self):
        for view in self.views:
            assert view.trie.root_hash == view.root
            for seq, value in view.model.items():
                assert view.trie.get(seq_to_key(seq)) == value
            for seq in list(view.model)[:3]:
                assert verify_membership(view.root, view.trie.prove(seq_to_key(seq)))
            for seq in view.sealed:
                try:
                    view.trie.get(seq_to_key(seq))
                    raise AssertionError(f"sealed sequence {seq} readable in a view")
                except SealedNodeError:
                    pass

    @invariant()
    def deterministic_root(self):
        # Rebuild a trie from the live model plus replayed sealing and
        # compare: the root commits to content, not history...  only
        # checkable cheaply when nothing was sealed (sealed subtree
        # shapes depend on the insertion order of vanished entries).
        if self.sealed:
            return
        rebuilt = SealableTrie()
        for seq, value in self.model.items():
            rebuilt.set(seq_to_key(seq), value)
        assert rebuilt.root_hash == self.trie.root_hash


TestTrieStateMachine = TrieMachine.TestCase
TestTrieStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)


class TestSealedReinsertIsImpossible:
    def test_reinsert_after_seal(self):
        trie = SealableTrie()
        for seq in range(3):
            trie.set(seq_to_key(seq), b"v")
        trie.seal(seq_to_key(0))
        import pytest
        with pytest.raises(SealedNodeError):
            trie.set(seq_to_key(0), b"resurrect")

    def test_delete_after_seal(self):
        trie = SealableTrie()
        for seq in range(3):
            trie.set(seq_to_key(seq), b"v")
        trie.seal(seq_to_key(0))
        import pytest
        with pytest.raises(SealedNodeError):
            trie.delete(seq_to_key(0))
