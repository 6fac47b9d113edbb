"""The sealable Merkle trie (§III-A of the paper).

A 16-ary Merkle-Patricia trie with one extension over the textbook
structure: :meth:`SealableTrie.seal` prunes an entry from storage while
preserving the root commitment.  Sealed data is inaccessible — reads,
writes and proofs that would enter it fail with
:class:`~repro.errors.SealedNodeError` — which is exactly the mechanism
the Guest Contract uses to keep its state bounded while still preventing
double delivery of packets.  Keys that merely *diverge* from a sealed
stub's recorded path are provably absent and report
:class:`~repro.errors.KeyNotFoundError`, and inserts under such keys
split the stub like any leaf or extension.

A mutation edits in place the branches and extensions this trie owns —
those it created since its last :meth:`~SealableTrie.snapshot` — and
copies any other node on the touched path, sharing everything else.
Each trie holds an edit token and stamps the nodes it creates with it;
``snapshot()`` retires the token, so every node an older root can reach
is frozen forever and a view's hashes, proofs and aggregates never move.
Two invariants keep the edit invisible (:mod:`repro.trie.nodes`): nodes
are edited only on the way back up, after the descent below succeeded,
so a refused operation changes nothing; and a branch reads its slot's
aggregate before descending, since an owned child moves its own.

The structural invariant the delete/collapse path maintains — including
around sealed stubs, which are re-pathed rather than left stranded — is
that the tree shape always equals the canonical (never-sealed) trie of
the same mapping, so an incrementally maintained root matches a fresh
rebuild.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.crypto.hashing import Hash
from repro.errors import KeyNotFoundError, SealedNodeError, TrieError
from repro.trie.nibbles import Nibbles, common_prefix_len, key_to_nibbles
from repro.trie.nodes import (
    HASH_BYTES,
    BranchNode,
    ExtensionNode,
    LeafNode,
    Node,
    SealedNode,
    value_commitment,
)
from repro.trie.proof import (
    BranchStep,
    DivergentExtensionEvidence,
    DivergentLeafEvidence,
    EmptySlotEvidence,
    EmptyTrieEvidence,
    ExtensionStep,
    MembershipProof,
    NoBranchValueEvidence,
    NonMembershipProof,
    Step,
    pack_digests,
)


class SealableTrie:
    """Merkle-Patricia trie with sealing, proofs and storage accounting."""

    def __init__(self) -> None:
        self._root: Optional[Node] = None
        # The edit token stamped on every branch and extension this trie
        # creates; compared by identity, retired by snapshot().
        self._token = object()
        # Mutation mirrors (state-sync journals / lockstep replicas).
        # Notified after each successful set/delete/seal; snapshots get
        # a fresh empty list, so historical views never re-notify.
        self._mirrors: list = []

    def attach_mirror(self, mirror) -> None:
        """Register an observer with ``on_op(kind, key, value)``, called
        after every successful mutation (see :mod:`repro.state.sync`)."""
        self._mirrors.append(mirror)

    def detach_mirror(self, mirror) -> None:
        self._mirrors.remove(mirror)

    def _notify(self, kind: str, key: bytes, value: bytes = b"") -> None:
        for mirror in self._mirrors:
            mirror.on_op(kind, key, value)

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------

    @property
    def root_hash(self) -> Hash:
        """The 32-byte commitment carried in guest block headers."""
        if self._root is None:
            return Hash.zero()
        return self._root.hash()

    def is_empty(self) -> bool:
        return self._root is None

    def snapshot(self) -> "SealableTrie":
        """An O(1) frozen view of the current state.

        The view is a second trie handle onto today's root.  Taking it
        retires this trie's edit token, so no node reachable from the
        view is ever edited in place again: later mutations, of this
        trie or of the view, copy the nodes on their path instead, and
        old roots remain valid forever.  A view owns no node yet.
        Chains use this to serve proofs against *historical* block roots.
        """
        view = SealableTrie()
        view._root = self._root
        self._token = object()
        return view

    @staticmethod
    def _sealed_miss(node: SealedNode, path: Nibbles, key: bytes,
                     verb: str) -> Exception:
        """The error for an operation that ran into a sealed stub.

        Entering the pruned data is a :class:`SealedNodeError`; a key
        that provably diverges from the stub's recorded path is simply
        absent, the same answer a never-sealed trie would give.
        """
        if node.covers(path):
            return SealedNodeError(f"{verb} of {key.hex()} hit a sealed node")
        return KeyNotFoundError(f"key {key.hex()} not in trie")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        """Return the value stored under ``key``.

        Raises :class:`KeyNotFoundError` if absent and
        :class:`SealedNodeError` if the lookup path enters a sealed region.
        """
        node = self._root
        path = key_to_nibbles(key)
        while True:
            if node is None:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            if isinstance(node, SealedNode):
                raise self._sealed_miss(node, path, key, "lookup")
            if isinstance(node, LeafNode):
                if node.path == path:
                    return node.value
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            if isinstance(node, ExtensionNode):
                if path[: len(node.path)] != node.path:
                    raise KeyNotFoundError(f"key {key.hex()} not in trie")
                path = path[len(node.path):]
                node = node.child
                continue
            # BranchNode
            if not path:
                if node.value is None:
                    raise KeyNotFoundError(f"key {key.hex()} not in trie")
                return node.value
            node, path = node.children[path[0]], path[1:]

    def contains(self, key: bytes) -> bool:
        """``True`` iff ``key`` is present and readable (not sealed)."""
        try:
            self.get(key)
            return True
        except KeyNotFoundError:
            return False

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key -> value``.

        Raises :class:`SealedNodeError` if the write path enters a sealed
        region (sealed entries can never be resurrected — the double-
        delivery guard of §III-A).
        """
        if not isinstance(value, bytes):
            raise TrieError("trie values must be bytes")
        self._root = self._set(self._root, key_to_nibbles(key), value)
        if self._mirrors:
            self._notify("set", key, value)

    def _set(self, node: Optional[Node], path: Nibbles, value: bytes) -> Node:
        if node is None:
            return LeafNode(path, value)

        if isinstance(node, SealedNode):
            return self._split_sealed(node, path, value)

        if isinstance(node, LeafNode):
            if node.path == path:
                return LeafNode(path, value)
            return self._split_leaf(node, path, value)

        if isinstance(node, ExtensionNode):
            own = node.path
            if path[: len(own)] == own:
                return node.replacing_child(
                    self._set(node.child, path[len(own):], value), self._token)
            return self._split_extension(
                node, common_prefix_len(own, path), path, value)

        # BranchNode — edit via replacing_child/replacing_value so the
        # untouched sibling hashes carry over (incremental rehash).
        if not path:
            return node.replacing_value(value, self._token)
        slot = path[0]
        old = node.children[slot]
        # Read before descending: an owned occupant is edited in place.
        was = old.aggregates() if old is not None and node._agg is not None else None
        return node.replacing_child(
            slot, self._set(old, path[1:], value),
            self._token, was)

    def _split_leaf(self, leaf: LeafNode, path: Nibbles, value: bytes) -> Node:
        """Split a leaf whose path diverges from the inserted key."""
        prefix = common_prefix_len(leaf.path, path)
        branch = BranchNode(owner=self._token)
        old_rest, new_rest = leaf.path[prefix:], path[prefix:]
        if old_rest:
            branch.children[old_rest[0]] = LeafNode(old_rest[1:], leaf.value)
        else:
            branch.value = leaf.value
        if new_rest:
            branch.children[new_rest[0]] = LeafNode(new_rest[1:], value)
        else:
            branch.value = value
        if prefix:
            return ExtensionNode(path[:prefix], branch, self._token)
        return branch

    def _split_extension(self, ext: ExtensionNode, prefix: int, path: Nibbles, value: bytes) -> Node:
        """Split an extension at the divergence point ``prefix``."""
        branch = BranchNode(owner=self._token)
        ext_rest = ext.path[prefix:]
        # Re-attach the extension's tail under its first diverging nibble.
        if len(ext_rest) == 1:
            branch.children[ext_rest[0]] = ext.child
        else:
            branch.children[ext_rest[0]] = ExtensionNode(
                ext_rest[1:], ext.child, self._token)
        new_rest = path[prefix:]
        if new_rest:
            branch.children[new_rest[0]] = LeafNode(new_rest[1:], value)
        else:
            branch.value = value
        if prefix:
            return ExtensionNode(path[:prefix], branch, self._token)
        return branch

    def _split_sealed(self, node: SealedNode, path: Nibbles, value: bytes) -> Node:
        """Insert next to a sealed stub the key provably does not enter.

        A stub whose recorded path diverges from the key is re-pathed
        under a divergence branch — the same split a live leaf or
        extension gets; an empty slot of a sealed branch re-materializes
        the branch around the new entry.  Either way the result is the
        shape a fresh rebuild of the same mapping would produce, so
        sealing never distorts the canonical structure.  Writing *into*
        pruned data (the exact sealed key, or an occupied slot's opaque
        subtree) stays forbidden: sealed entries can never be
        resurrected (§III-A).
        """
        if node.covers(path):
            raise SealedNodeError("write path hit a sealed node")
        own = node.path
        prefix = common_prefix_len(own, path)
        if prefix == len(own):
            if node.kind == SealedNode.BRANCH and len(path) > len(own):
                return self._expand_sealed_branch(node, path, value)
            # A LEAF stub's path is a strict prefix of the key (the
            # sealed value would have to move to a branch-value slot the
            # sealed layout cannot represent), or the key ends exactly at
            # a sealed branch.  Hashed fixed-length store keys never
            # produce prefix keys.
            raise SealedNodeError("write path hit a sealed node")
        stub_rest, new_rest = own[prefix:], path[prefix:]
        branch = BranchNode(owner=self._token)
        branch.children[stub_rest[0]] = SealedNode(
            stub_rest[1:], node.kind, core=node.core, children=node.children)
        if new_rest:
            branch.children[new_rest[0]] = LeafNode(new_rest[1:], value)
        else:
            branch.value = value
        if prefix:
            return ExtensionNode(path[:prefix], branch, self._token)
        return branch

    def _expand_sealed_branch(self, node: SealedNode, path: Nibbles,
                              value: bytes) -> Node:
        """Insert into an empty slot of a sealed branch.

        The branch is re-materialized with opaque stubs in its occupied
        slots (their subtree hashes are all the stub retained) and the
        new leaf beside them.  The opaque stubs are permanent fixtures —
        no operation can remove one — so the branch always keeps at
        least two occupants and collapse can never strand an opaque stub
        as a lone child it cannot re-path.
        """
        assert node.children is not None
        branch = BranchNode(owner=self._token)
        for index, child in enumerate(node.children):
            if child is not None:
                branch.children[index] = SealedNode.opaque(child)
        rest = path[len(node.path):]
        branch.children[rest[0]] = LeafNode(rest[1:], value)
        if node.path:
            return ExtensionNode(node.path, branch, self._token)
        return branch

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, key: bytes) -> None:
        """Remove ``key`` (collapsing redundant nodes).

        Unlike :meth:`seal`, deletion changes the root commitment; it is
        what the IBC module uses to clear packet commitments after
        acknowledgement.
        """
        self._root = self._delete(self._root, key_to_nibbles(key), key)
        if self._mirrors:
            self._notify("delete", key)

    def _delete(self, node: Optional[Node], path: Nibbles, key: bytes) -> Optional[Node]:
        if node is None:
            raise KeyNotFoundError(f"key {key.hex()} not in trie")
        if isinstance(node, SealedNode):
            raise self._sealed_miss(node, path, key, "delete")

        if isinstance(node, LeafNode):
            if node.path == path:
                return None
            raise KeyNotFoundError(f"key {key.hex()} not in trie")

        if isinstance(node, ExtensionNode):
            if path[: len(node.path)] != node.path:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            child = self._delete(node.child, path[len(node.path):], key)
            if child is None:
                return None
            if isinstance(child, BranchNode):
                return node.replacing_child(child, self._token)
            return self._merge_extension(node.path, child)

        # BranchNode
        if not path:
            if node.value is None:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            return self._collapse_branch(
                node.replacing_value(None, self._token))
        slot = path[0]
        old = node.children[slot]
        # Read before descending: an owned occupant is edited in place.
        was = old.aggregates() if old is not None and node._agg is not None else None
        new_child = self._delete(old, path[1:], key)
        branch = node.replacing_child(slot, new_child, self._token, was)
        if new_child is None or isinstance(new_child, SealedNode):
            return self._collapse_branch(branch)
        return branch  # a live child keeps its slot: nothing to collapse

    def _merge_extension(self, path: Nibbles, child: Node) -> Node:
        """Normalize an extension so no extension points at a leaf,
        another extension, or a sealed stub (stubs absorb the prefix
        into their recorded path instead)."""
        if isinstance(child, LeafNode):
            return LeafNode(path + child.path, child.value)
        if isinstance(child, ExtensionNode):
            return ExtensionNode(path + child.path, child.child, self._token)
        if isinstance(child, SealedNode):
            return child.with_prefix(path)
        return ExtensionNode(path, child, self._token)

    def _collapse_branch(self, branch: BranchNode) -> Optional[Node]:
        """Collapse a branch left with at most one occupant after delete.

        Takes (and may return) the already-edited branch so its carried
        child-hash cache survives when no collapse applies.
        """
        occupied = branch.child_count()
        if branch.value is not None:
            if not occupied:
                return LeafNode((), branch.value)
            return branch
        if not occupied:
            return None
        if occupied == 1:
            for index, only in enumerate(branch.children):
                if only is not None:
                    return self._merge_extension((index,), only)
        if not branch.has_live_child():
            # Every remaining occupant is sealed (e.g. the one live leaf
            # of a re-materialized sealed branch was deleted): collapse
            # back into a branch stub.  Hash-neutral, but the branch node
            # leaves storage again.
            return SealedNode.of_branch(branch)
        return branch

    # ------------------------------------------------------------------
    # Sealing (the paper's contribution)
    # ------------------------------------------------------------------

    def seal(self, key: bytes) -> None:
        """Seal the entry at ``key``: prune it while preserving the root.

        The leaf is replaced by a hash-only stub; ancestors whose children
        are all sealed collapse into stubs as well (§III-A).  After
        sealing, the entry can never be read, re-written or proven again.
        """
        self._root = self._seal(self._root, key_to_nibbles(key), key)
        if self._mirrors:
            self._notify("seal", key)

    def _seal(self, node: Optional[Node], path: Nibbles, key: bytes) -> Node:
        if node is None:
            raise KeyNotFoundError(f"key {key.hex()} not in trie")
        if isinstance(node, SealedNode):
            if node.covers(path):
                raise SealedNodeError(
                    f"seal path for {key.hex()} hit an already sealed node")
            raise KeyNotFoundError(f"key {key.hex()} not in trie")

        if isinstance(node, LeafNode):
            if node.path != path:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            return SealedNode.of_leaf(node)

        if isinstance(node, ExtensionNode):
            if path[: len(node.path)] != node.path:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            child = self._seal(node.child, path[len(node.path):], key)
            if isinstance(child, SealedNode):
                # The whole extension's subtree is sealed: fold the
                # extension path into the stub, preserving its hash.
                return child.with_prefix(node.path)
            return node.replacing_child(child, self._token)

        # BranchNode
        if not path:
            if node.value is None:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            raise TrieError(
                "cannot seal a value stored at a branch; provable stores "
                "hash keys to fixed length so values terminate at leaves"
            )
        slot = path[0]
        old = node.children[slot]
        # Read before descending: an owned occupant is edited in place.
        was = old.aggregates() if old is not None and node._agg is not None else None
        sealed_child = self._seal(old, path[1:], key)
        branch = node.replacing_child(slot, sealed_child, self._token, was)
        if (isinstance(sealed_child, SealedNode) and branch.value is None
                and not branch.has_live_child()):
            return SealedNode.of_branch(branch)
        return branch

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------

    def prove(self, key: bytes) -> MembershipProof:
        """Generate a membership proof for ``key``.

        Raises if the key is absent or its path enters a sealed region
        (sealed data can no longer be proven — by design).
        """
        steps: list[Step] = []
        node = self._root
        path = key_to_nibbles(key)
        while True:
            if node is None:
                raise KeyNotFoundError(f"key {key.hex()} not in trie")
            if isinstance(node, SealedNode):
                raise self._sealed_miss(node, path, key, "proof")
            if isinstance(node, LeafNode):
                if node.path != path:
                    raise KeyNotFoundError(f"key {key.hex()} not in trie")
                return MembershipProof(
                    key=key, value=node.value, steps=tuple(steps), leaf_path=node.path,
                )
            if isinstance(node, ExtensionNode):
                if path[: len(node.path)] != node.path:
                    raise KeyNotFoundError(f"key {key.hex()} not in trie")
                steps.append(ExtensionStep(node.path))
                path = path[len(node.path):]
                node = node.child
                continue
            # BranchNode
            if not path:
                raise TrieError(
                    "cannot prove a branch-value entry; provable stores "
                    "hash keys to fixed length so values terminate at leaves"
                )
            index = path[0]
            steps.append(self._branch_step(node, index))
            node, path = node.children[index], path[1:]

    def prove_absence(self, key: bytes) -> NonMembershipProof:
        """Generate a non-membership proof for ``key``.

        Raises :class:`TrieError` if the key *is* present, and
        :class:`SealedNodeError` if its path enters a sealed region
        (absence through sealed data cannot be shown).
        """
        steps: list[Step] = []
        node = self._root
        path = key_to_nibbles(key)
        while True:
            if node is None:
                if steps:
                    raise TrieError("internal: descended into an empty child")
                return NonMembershipProof(key=key, steps=(), evidence=EmptyTrieEvidence())
            if isinstance(node, SealedNode):
                if node.covers(path):
                    raise SealedNodeError(
                        f"absence proof for {key.hex()} hit a sealed node")
                # The key provably diverges from (or fits beside) the
                # stub's surviving skeleton, which is the evidence.
                if node.kind == SealedNode.LEAF:
                    assert node.core is not None
                    return NonMembershipProof(
                        key=key, steps=tuple(steps),
                        evidence=DivergentLeafEvidence(
                            path=node.path, commitment=node.core),
                    )
                # BRANCH kind (an OPAQUE stub covers every path).
                own = node.path
                if path[: len(own)] != own:
                    return NonMembershipProof(
                        key=key, steps=tuple(steps),
                        evidence=DivergentExtensionEvidence(
                            path=own, child=node.branch_core_hash()),
                    )
                if own:
                    steps.append(ExtensionStep(own))
                if len(path) == len(own):
                    return NonMembershipProof(
                        key=key, steps=tuple(steps),
                        evidence=NoBranchValueEvidence(
                            *pack_digests(node.child_digests())),
                    )
                return NonMembershipProof(
                    key=key, steps=tuple(steps),
                    evidence=EmptySlotEvidence(
                        *pack_digests(node.child_digests()), value=None),
                )
            if isinstance(node, LeafNode):
                if node.path == path:
                    raise TrieError(f"key {key.hex()} is present; cannot prove absence")
                return NonMembershipProof(
                    key=key, steps=tuple(steps),
                    evidence=DivergentLeafEvidence(
                        path=node.path, commitment=value_commitment(node.value)),
                )
            if isinstance(node, ExtensionNode):
                if path[: len(node.path)] != node.path:
                    return NonMembershipProof(
                        key=key, steps=tuple(steps),
                        evidence=DivergentExtensionEvidence(
                            path=node.path, child=node.child.hash(),
                        ),
                    )
                steps.append(ExtensionStep(node.path))
                path = path[len(node.path):]
                node = node.child
                continue
            # BranchNode
            if not path:
                if node.value is not None:
                    raise TrieError(f"key {key.hex()} is present; cannot prove absence")
                return NonMembershipProof(
                    key=key, steps=tuple(steps),
                    evidence=NoBranchValueEvidence(
                        *pack_digests(node.child_digests())),
                )
            index = path[0]
            child = node.children[index]
            if child is None:
                return NonMembershipProof(
                    key=key, steps=tuple(steps),
                    evidence=EmptySlotEvidence(
                        *pack_digests(node.child_digests()), value=node.value),
                )
            steps.append(self._branch_step(node, index))
            node, path = child, path[1:]

    @staticmethod
    def _branch_step(branch: BranchNode, index: int) -> BranchStep:
        """The step into occupied slot ``index``: the branch's slots
        packed once, then the descended slot's bit and digest cut out."""
        occupied, digests = pack_digests(branch.child_digests())
        below = occupied & ((1 << index) - 1)
        cut = HASH_BYTES * below.bit_count()
        return BranchStep(index, below | occupied >> (index + 1) << index,
                          digests[:cut] + digests[cut + HASH_BYTES:], branch.value)

    # ------------------------------------------------------------------
    # Storage accounting (§V-D)
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of live (unsealed) nodes in storage.

        Reads the root's subtree aggregate, which every mutation carries
        along the edited path once it has been summed (the first query
        sums the trie, later ones read one tuple).  The state-budget
        check runs this on every contract execution, so the full-trie
        walk it replaced dominated the soak wall-clock profile.
        """
        if self._root is None:
            return 0
        return self._root.aggregates()[1]

    def sealed_count(self) -> int:
        """Number of sealed stubs currently embedded in live parents."""
        if self._root is None:
            return 0
        return self._root.aggregates()[2]

    def storage_bytes(self) -> int:
        """Bytes of live node storage, per the accounted on-chain layout."""
        if self._root is None:
            return 0
        return self._root.aggregates()[0]

    def recount_aggregates(self) -> tuple[int, int, int]:
        """Recompute ``(storage_bytes, live_nodes, sealed_stubs)`` by a
        full walk that ignores every per-node aggregate cache.

        This is the differential oracle for the cached aggregates: after
        any interleaving of set/delete/seal the cached totals must equal
        this recount exactly (tests/test_trie_properties.py asserts it).
        """
        def walk(node: Optional[Node]) -> tuple[int, int, int]:
            if node is None:
                return (0, 0, 0)
            if isinstance(node, SealedNode):
                return (node.storage_bytes(), 0, 1)
            if isinstance(node, LeafNode):
                return (node.storage_bytes(), 1, 0)
            if isinstance(node, ExtensionNode):
                storage, live, sealed = walk(node.child)
                return (node.storage_bytes() + storage, 1 + live, sealed)
            storage, live, sealed = node.storage_bytes(), 1, 0
            for child in node.children:
                if child is not None:
                    c_storage, c_live, c_sealed = walk(child)
                    storage += c_storage
                    live += c_live
                    sealed += c_sealed
            return (storage, live, sealed)

        return walk(self._root)

    def _iter_live_nodes(self) -> Iterator[Node]:
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, SealedNode):
                continue
            yield node
            if isinstance(node, ExtensionNode):
                stack.append(node.child)
            elif isinstance(node, BranchNode):
                stack.extend(child for child in node.children if child is not None)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live ``(key, value)`` pairs with even-nibble keys.

        Sealed subtrees are skipped (their contents are gone); entries
        whose accumulated path has odd nibble count cannot be expressed
        as bytes and are skipped as well (they do not occur for
        byte-string keys).
        """
        def walk(node: Optional[Node], prefix: Nibbles) -> Iterator[tuple[Nibbles, bytes]]:
            if node is None or isinstance(node, SealedNode):
                return
            if isinstance(node, LeafNode):
                yield prefix + node.path, node.value
                return
            if isinstance(node, ExtensionNode):
                yield from walk(node.child, prefix + node.path)
                return
            if node.value is not None:
                yield prefix, node.value
            for i, child in enumerate(node.children):
                yield from walk(child, prefix + (i,))

        from repro.trie.nibbles import nibbles_to_key
        for path, value in walk(self._root, ()):
            if len(path) % 2 == 0:
                yield nibbles_to_key(path), value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())
