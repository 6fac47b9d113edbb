"""Node types of the sealable Patricia trie.

Four node kinds, following Merkle-Patricia conventions plus the paper's
sealing extension:

* :class:`LeafNode` — remaining key path + value.
* :class:`ExtensionNode` — shared path segment compressing a chain of
  single-child branches.
* :class:`BranchNode` — 16 child slots and an optional value for a key
  terminating at the branch.
* :class:`SealedNode` — the paper's novelty: a stub that preserves a
  subtree's hash while its contents have been deleted from storage
  (§III-A).  Its accounted size is just the 32-byte hash that the parent
  must retain anyway.

Hashes and aggregates are computed lazily and cached.  Who may edit a
node is decided by ownership (the trie object owns that logic): a
branch or extension carries the edit token of the trie that created it
(``_owner``), and :meth:`BranchNode.replacing_child`,
:meth:`BranchNode.replacing_value` and
:meth:`ExtensionNode.replacing_child` edit the node in place when the
caller's token owns it, and otherwise return a copy stamped with that
token.  :meth:`~repro.trie.trie.SealableTrie.snapshot` retires the
token, so every node a view can reach is frozen, and a frozen node's
caches never go stale.  Two invariants make the in-place edit safe:

* an edit runs only on the way back up, after the descent below it has
  succeeded, so a refused operation leaves every node as it was;
* a parent reads what a slot contributed to its aggregate *before* it
  descends (the ``was`` of :meth:`BranchNode.replacing_child`), because
  an owned child edited in place has already moved its own aggregate.

The same discipline carries the *aggregate* caches: branches and
extensions memoize their subtree's ``(storage bytes, live nodes, sealed
stubs)`` totals, and an edited branch moves its total by *old − old
child + new child*, so once the root has been asked, every mutation
keeps it current in O(depth) and the per-execution state-budget check
reads one tuple (docs/PERFORMANCE.md).  A node that was never asked
stays unsummed and its edits carry nothing; the first query sums it
lazily.

Leaf hashes commit to the *hash* of the value (:func:`value_commitment`)
rather than the raw bytes.  That keeps sealed stubs *re-pathable*: a stub
remembers its remaining key path plus the fixed-size core commitment, so
when a delete strands it as a branch's lone occupant the trie can merge
the branch nibble into the stub's path and recompute its hash — exactly
what a fresh rebuild of the same mapping would produce.  Without the
indirection the stub's hash pins the pruned value bytes and the shape can
never be normalized (the stranded-stub divergence documented in
docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.crypto.hashing import Hash, framed, framed_digests, hash_bytes, hash_concat
from repro.trie.nibbles import Nibbles, encode_nibbles, encoded_nibbles_len

_TAG_LEAF = b"\x00"
_TAG_EXTENSION = b"\x01"
_TAG_BRANCH = b"\x02"
_TAG_VALUE = b"\x04"
_NO_VALUE = b"\xff"

#: Accounted per-node byte overhead (tag + bookkeeping), mirroring the
#: on-chain layout the paper's deployment uses inside its 10 MiB account.
NODE_OVERHEAD_BYTES = 8
HASH_BYTES = 32

Node = Union["LeafNode", "ExtensionNode", "BranchNode", "SealedNode"]

_ZERO_DIGEST = Hash.zero().value

#: What an empty branch slot contributes to its branch's aggregate,
#: relative to an occupied one: no subtree, and no child hash stored.
_EMPTY_SLOT_AGG = (-HASH_BYTES, 0, 0)

#: The framed parts a branch preimage starts with and, holding no
#: value, ends with.
_BRANCH_HEAD = framed(_TAG_BRANCH)
_BRANCH_NO_VALUE = framed(_NO_VALUE)


def _value_bytes(value: Optional[bytes]) -> int:
    return len(value) if value is not None else 0


# ---------------------------------------------------------------------------
# Canonical node hashing
#
# These are *the* hash formulas of the commitment scheme; proof
# verification (repro.trie.proof) folds the same functions bottom-up, so
# they live here rather than being duplicated per call site.
# ---------------------------------------------------------------------------

def value_commitment(value: bytes) -> Hash:
    """The fixed-size commitment a leaf hash binds instead of raw bytes.

    Sealing keeps only this 32-byte digest, which is what lets a sealed
    leaf stub be re-hashed under a longer path after branch collapse.
    """
    return hash_concat(_TAG_VALUE, value)


def leaf_hash(path: Nibbles, commitment: Hash) -> Hash:
    """Hash of a leaf from its path and its :func:`value_commitment`."""
    return hash_concat(_TAG_LEAF, encode_nibbles(path), commitment)


def extension_hash(path: Nibbles, child: Hash) -> Hash:
    return hash_concat(_TAG_EXTENSION, encode_nibbles(path), child)


def branch_hash(children: Sequence[bytes], value: Optional[bytes]) -> Hash:
    """Hash of a branch from its 16 raw slot digests (the zero digest
    for an empty slot) and its value."""
    return hash_bytes(b"".join((
        _BRANCH_HEAD, framed_digests(children),
        _BRANCH_NO_VALUE if value is None else framed(value))))


class LeafNode:
    """A terminal node holding ``value`` at the end of ``path``."""

    __slots__ = ("path", "value", "_hash")

    def __init__(self, path: Nibbles, value: bytes) -> None:
        self.path = path
        self.value = value
        self._hash: Optional[Hash] = None

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = leaf_hash(self.path, value_commitment(self.value))
        return self._hash

    def storage_bytes(self) -> int:
        return NODE_OVERHEAD_BYTES + encoded_nibbles_len(self.path) + len(self.value)

    def aggregates(self) -> tuple[int, int, int]:
        """Subtree totals ``(storage_bytes, live_nodes, sealed_stubs)``."""
        return (self.storage_bytes(), 1, 0)

    def __repr__(self) -> str:
        return f"Leaf(path={self.path}, value={self.value[:8]!r})"


class ExtensionNode:
    """A path-compression node: ``path`` then ``child``."""

    __slots__ = ("path", "child", "_hash", "_agg", "_owner")

    def __init__(self, path: Nibbles, child: Node, owner: object = None) -> None:
        if not path:
            raise ValueError("extension path must be non-empty")
        self.path = path
        self.child = child
        self._hash: Optional[Hash] = None
        self._agg: Optional[tuple[int, int, int]] = None
        #: The edit token of the trie allowed to edit this node in place.
        self._owner = owner

    def replacing_child(self, child: Node, owner: object) -> "ExtensionNode":
        """This extension over ``child``: edited in place when ``owner``
        owns it, otherwise a copy that ``owner`` owns.  Either way the
        aggregate is left to be re-read from the child, as a fresh node's
        would be."""
        if self._owner is owner:
            self.child = child
            self._hash = None
            self._agg = None
            return self
        return ExtensionNode(self.path, child, owner)

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = extension_hash(self.path, self.child.hash())
        return self._hash

    def storage_bytes(self) -> int:
        return NODE_OVERHEAD_BYTES + encoded_nibbles_len(self.path) + HASH_BYTES

    def aggregates(self) -> tuple[int, int, int]:
        if self._agg is None:
            storage, live, sealed = self.child.aggregates()
            self._agg = (self.storage_bytes() + storage, 1 + live, sealed)
        return self._agg

    def __repr__(self) -> str:
        return f"Extension(path={self.path})"


class BranchNode:
    """A 16-way fan-out with an optional value terminating at the branch."""

    __slots__ = ("children", "value", "_hash", "_child_digests", "_agg", "_owner")

    def __init__(self, children: Optional[list[Optional[Node]]] = None,
                 value: Optional[bytes] = None, owner: object = None) -> None:
        self.children: list[Optional[Node]] = children if children is not None else [None] * 16
        if len(self.children) != 16:
            raise ValueError("branch must have exactly 16 child slots")
        self.value = value
        self._hash: Optional[Hash] = None
        #: Either the final cached tuple or a partially valid list with
        #: ``None`` holes (dirty slots from :meth:`replacing_child`).  A
        #: list belongs to one node: an owned node patches it in place.
        self._child_digests: Optional[tuple[bytes, ...] | list[Optional[bytes]]] = None
        self._agg: Optional[tuple[int, int, int]] = None
        #: The edit token of the trie allowed to edit this node in place.
        self._owner = owner

    def replacing_child(self, index: int, child: Optional[Node], owner: object,
                        was: Optional[tuple[int, int, int]]) -> "BranchNode":
        """This branch with one child slot replaced: edited in place when
        ``owner`` owns it, otherwise a copy that ``owner`` owns.

        This is the incremental-rehash path: the fifteen untouched
        sibling hashes are kept from this node's cache (when warm) and
        only the dirty slot is recomputed — lazily, so a burst of writes
        to one subtree does not rehash intermediate states.

        ``was`` is the old occupant's aggregate (``None`` for an empty
        slot), read *before* the descent that produced ``child``: an
        owned occupant is edited in place, so afterwards it reports its
        new totals.  It is needed only while this branch's aggregate is
        warm, and then the read is O(1) (a warm aggregate was summed from
        its descendants', so theirs are warm too).
        """
        agg = self._agg
        cached = self._child_digests
        if self._owner is owner:
            node = self
            self.children[index] = child
            self._hash = None
            if cached is not None:
                if type(cached) is tuple:
                    cached = self._child_digests = list(cached)
                cached[index] = None
        else:
            children = list(self.children)
            children[index] = child
            node = BranchNode(children, self.value, owner)
            if cached is not None:
                patched: list[Optional[bytes]] = list(cached)
                patched[index] = None
                node._child_digests = patched
        if agg is not None:
            storage, live, sealed = agg
            if was is None:
                was = _EMPTY_SLOT_AGG
            now = child.aggregates() if child is not None else _EMPTY_SLOT_AGG
            node._agg = (storage - was[0] + now[0],
                         live - was[1] + now[1],
                         sealed - was[2] + now[2])
        return node

    def replacing_value(self, value: Optional[bytes], owner: object) -> "BranchNode":
        """This branch with only its value changed: edited in place when
        ``owner`` owns it, otherwise a copy that ``owner`` owns.

        The children are untouched, so the child-hash cache stays valid
        (the holes of a partially valid cache, if any, are filled lazily
        by :meth:`child_digests`); a copy takes a final tuple as it is and
        a partial list as its own copy.
        """
        old = self.value
        if self._owner is owner:
            node = self
            self.value = value
            self._hash = None
        else:
            node = BranchNode(list(self.children), value, owner)
            cached = self._child_digests
            node._child_digests = list(cached) if type(cached) is list else cached
        agg = self._agg
        if agg is not None:
            node._agg = (agg[0] - _value_bytes(old) + _value_bytes(value),
                         agg[1], agg[2])
        return node

    def child_digests(self) -> tuple[bytes, ...]:
        """All 16 raw child digests (the zero digest for empty slots),
        cached: what the branch hash frames and proofs pack.

        Proof generation needs a branch's sibling hashes on every step;
        without the cache each proof re-hashes the same children over and
        over.  An in-place edit drops the hash of the slot it changes,
        and a frozen node is never edited, so the cache never goes stale.
        """
        cached = self._child_digests
        if type(cached) is tuple:
            return cached
        if cached is None:
            digests = tuple(
                child.hash().value if child is not None else _ZERO_DIGEST
                for child in self.children
            )
        else:  # partially valid list: fill the dirty holes
            children = self.children
            digests = tuple(
                existing if existing is not None
                else (children[i].hash().value if children[i] is not None
                      else _ZERO_DIGEST)
                for i, existing in enumerate(cached)
            )
        self._child_digests = digests
        return digests

    def hash(self) -> Hash:
        if self._hash is None:
            self._hash = branch_hash(self.child_digests(), self.value)
        return self._hash

    def child_count(self) -> int:
        return 16 - self.children.count(None)

    def storage_bytes(self) -> int:
        """Sparse on-chain layout: a 2-byte occupancy bitmap plus one
        hash per *present* child (matching the compact node encoding the
        deployment uses inside its 10 MiB account — empty slots cost
        nothing)."""
        bitmap_bytes = 2
        return (NODE_OVERHEAD_BYTES + bitmap_bytes
                + self.child_count() * HASH_BYTES + _value_bytes(self.value))

    def aggregates(self) -> tuple[int, int, int]:
        if self._agg is None:
            storage = self.storage_bytes()
            live = 1
            sealed = 0
            for child in self.children:
                if child is not None:
                    c_storage, c_live, c_sealed = child.aggregates()
                    storage += c_storage
                    live += c_live
                    sealed += c_sealed
            self._agg = (storage, live, sealed)
        return self._agg

    def has_live_child(self) -> bool:
        """Whether any occupant is not a sealed stub, read off the
        aggregate: the branch itself is the first live node it counts."""
        return self.aggregates()[1] > 1

    def __repr__(self) -> str:
        slots = "".join("x" if c is not None else "." for c in self.children)
        return f"Branch([{slots}], value={'yes' if self.value is not None else 'no'})"


class SealedNode:
    """A pruned subtree: commitments survive, contents do not (§III-A).

    The node's contents are gone from storage; the stub keeps the root
    commitment intact.  Any traversal that would enter the pruned *data*
    must fail — which is exactly how the Guest Contract prevents double
    delivery after sealing a processed packet's receipt.  Keys that
    merely diverge from the stub's surviving skeleton are provably
    absent, and fresh keys can still be inserted beside it.

    Three kinds, mirroring what was pruned:

    * ``LEAF`` — a single sealed entry.  ``path`` is the leaf's remaining
      key path, ``core`` its :func:`value_commitment`; the hash is
      :func:`leaf_hash` over the two.
    * ``BRANCH`` — a fully sealed branch, optionally reached through an
      extension prefix ``path``.  ``children`` keeps the 16-slot
      occupancy with each present child's subtree hash, so empty slots
      remain insertable and provably absent while occupied slots are
      opaque.
    * ``OPAQUE`` — a bare subtree hash with no skeleton: what a sealed
      branch's occupied slot expands to when a fresh key is inserted
      beside it.  Fully covered; can never be re-pathed (the enclosing
      branch permanently keeps at least two of them, so collapse never
      strands one — see ``_collapse_branch``).

    Keeping paths and occupancy *outside* the hashed core is what makes
    stubs re-pathable and splittable: delete/collapse and insert produce
    exactly the stub a fresh rebuild of the same mapping would contain,
    so an incrementally maintained root never diverges from a rebuilt
    one.
    """

    __slots__ = ("path", "core", "children", "kind", "_hash")

    LEAF = 0
    BRANCH = 1
    OPAQUE = 2

    _AGG = (0, 0, 1)

    def __init__(self, path: Nibbles, kind: int,
                 core: Optional[Hash] = None,
                 children: Optional[tuple[Optional[Hash], ...]] = None) -> None:
        if kind in (SealedNode.LEAF, SealedNode.OPAQUE):
            if core is None or children is not None:
                raise ValueError("leaf/opaque stubs carry a core hash only")
            if kind == SealedNode.OPAQUE and path:
                raise ValueError("opaque stubs cannot carry a path")
        elif kind == SealedNode.BRANCH:
            if children is None or core is not None:
                raise ValueError("branch stubs carry child hashes only")
            if len(children) != 16:
                raise ValueError("branch stub must have exactly 16 child slots")
        else:
            raise ValueError(f"unknown sealed-node kind {kind}")
        self.path = path
        self.core = core
        self.children = children
        self.kind = kind
        self._hash: Optional[Hash] = None

    @classmethod
    def of_leaf(cls, leaf: "LeafNode") -> "SealedNode":
        return cls(leaf.path, cls.LEAF, core=value_commitment(leaf.value))

    @classmethod
    def of_branch(cls, branch: "BranchNode") -> "SealedNode":
        children = tuple(
            child.hash() if child is not None else None
            for child in branch.children
        )
        return cls((), cls.BRANCH, children=children)

    @classmethod
    def opaque(cls, subtree_hash: Hash) -> "SealedNode":
        return cls((), cls.OPAQUE, core=subtree_hash)

    def with_prefix(self, prefix: Nibbles) -> "SealedNode":
        """The same pruned data reached through ``prefix`` more nibbles —
        what branch collapse and extension merge produce."""
        if not prefix:
            return self
        if self.kind == SealedNode.OPAQUE:
            raise ValueError("opaque stubs cannot be re-pathed")
        return SealedNode(prefix + self.path, self.kind,
                          core=self.core, children=self.children)

    def covers(self, path: Nibbles) -> bool:
        """Whether ``path`` would end inside the pruned data (as opposed
        to provably diverging from, or fitting beside, the skeleton)."""
        if self.kind == SealedNode.LEAF:
            return path == self.path
        if self.kind == SealedNode.OPAQUE:
            return True
        own = self.path
        if len(path) <= len(own) or path[: len(own)] != own:
            return False
        assert self.children is not None
        return self.children[path[len(own)]] is not None

    def branch_core_hash(self) -> Hash:
        """The sealed branch's own hash (before the extension prefix)."""
        return branch_hash(self.child_digests(), None)

    def child_digests(self) -> list[bytes]:
        """The sealed branch's 16 raw child digests, the zero digest for
        empty slots (as :meth:`BranchNode.child_digests`)."""
        assert self.kind == SealedNode.BRANCH and self.children is not None
        return [child.value if child is not None else _ZERO_DIGEST
                for child in self.children]

    def hash(self) -> Hash:
        if self._hash is None:
            if self.kind == SealedNode.LEAF:
                assert self.core is not None
                self._hash = leaf_hash(self.path, self.core)
            elif self.kind == SealedNode.OPAQUE:
                assert self.core is not None
                self._hash = self.core
            else:
                core = self.branch_core_hash()
                self._hash = extension_hash(self.path, core) if self.path else core
        return self._hash

    def storage_bytes(self) -> int:
        # A stub is prunable to its 32-byte core on chain (the skeleton
        # is witness-reconstructible from any proof through it), and that
        # hash lives in the parent either way: accounted as zero.
        return 0

    def aggregates(self) -> tuple[int, int, int]:
        return self._AGG

    def __repr__(self) -> str:
        kind = {0: "leaf", 1: "branch", 2: "opaque"}[self.kind]
        return f"Sealed({kind}, path={self.path}, {self.hash().short()}…)"
