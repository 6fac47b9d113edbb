"""The sealable Merkle trie — the paper's core data structure (§III-A).

A Merkle-Patricia-style trie whose nodes can be **sealed**: removed from
storage while their hash remains embedded in the parent, so the root
commitment never changes.  Sealing bounds the provable-state size by the
number of *live* entries (open channels plus packets in flight) rather
than by the total history — the property §V-D depends on.

Public surface:

* :class:`~repro.trie.trie.SealableTrie` — get/set/delete/seal, proofs,
  storage accounting.
* :class:`~repro.trie.proof.MembershipProof` /
  :class:`~repro.trie.proof.NonMembershipProof` — self-contained proofs
  verifiable against a bare root hash.
* :class:`~repro.trie.proof.MembershipWitness` — many memberships under
  one root, each shared node once (what a batched delivery carries).
"""

from repro.trie.trie import SealableTrie
from repro.trie.proof import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
    verify_membership,
    verify_non_membership,
)
from repro.trie.serialize import dump_store, dump_trie, load_store, load_trie

__all__ = [
    "SealableTrie",
    "MembershipProof",
    "MembershipWitness",
    "NonMembershipProof",
    "dump_store",
    "dump_trie",
    "load_store",
    "load_trie",
    "verify_membership",
    "verify_non_membership",
]
