"""In-place edits of owned trie nodes, against the path-copying twin.

A :class:`~repro.trie.trie.SealableTrie` edits in place the branches and
extensions it created since its last ``snapshot()`` and copies every
other node on a path (:mod:`repro.trie.nodes`).  The twin,
``tests/helpers.py::PathCopyingTrie``, copies every node on every path,
as the trie did before it owned any.  Driven by the same hypothesis
sequences of set / delete / seal / snapshot and writes into views —
refused operations included — the two must agree on everything a
reader can see: roots, proof bytes, the cached aggregate of every node
and the exception each operation raises.

A refused operation must leave the trie exactly as it was, every cached
hash and aggregate included: nodes are edited only on the way back up,
after the descent below them succeeded, and the guest's double-delivery
guard relies on a refused write changing nothing.  And a node another
trie handle can reach is frozen: an operation may fill its lazy caches,
never change one it has filled, nor its links.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trie.nodes import BranchNode, ExtensionNode
from repro.trie.trie import SealableTrie

from tests.helpers import PathCopyingTrie

# One- and two-byte keys over few nibbles: shared prefixes make
# extensions, prefix keys make branch values, and sealing makes stubs
# that later writes run into.
KEYS = ([bytes([a]) for a in (0x10, 0x11, 0x21)]
        + [bytes([a, b]) for a in (0x10, 0x11, 0x21) for b in (0x00, 0x01, 0x10, 0x35)])
MAX_VIEWS = 3

key = st.sampled_from(KEYS)
value = st.binary(min_size=1, max_size=6)
op = st.one_of(
    st.tuples(st.just("set"), key, value),
    st.tuples(st.just("set"), key, value),   # twice: writes dominate
    st.tuples(st.just("delete"), key),
    st.tuples(st.just("seal"), key),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("view_set"), st.integers(0, MAX_VIEWS - 1), key, value),
    st.tuples(st.just("count")),   # warms the aggregates
    st.tuples(st.just("check")),   # hashes everything, compares
)


def nodes(trie: SealableTrie):
    stack = [trie._root] if trie._root is not None else []
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ExtensionNode):
            stack.append(node.child)
        elif isinstance(node, BranchNode):
            stack.extend(child for child in node.children if child is not None)


def filled(*tries: SealableTrie) -> dict:
    """Each node the tries reach: the node, its links and its caches."""
    out = {}
    for trie in tries:
        for node in nodes(trie):
            if isinstance(node, BranchNode):
                links = ([id(child) for child in node.children], node.value)
                caches = (node._hash, node._agg,
                          *(node._child_digests or (None,) * 16))
            elif isinstance(node, ExtensionNode):
                links = (node.path, id(node.child))
                caches = (node._hash, node._agg)
            else:
                links, caches = (), (node._hash,)
            out[id(node)] = (node, links, caches)
    return out


def only_filled(before: dict, tries: tuple) -> None:
    """No node of ``before`` changed a link, or a cache it had filled."""
    after = filled(*tries)
    for key, (_, links, caches) in before.items():
        if key in after:  # else the node left these tries (a dropped view)
            _, links_now, caches_now = after[key]
            assert links_now == links
            assert all(old is None or old == new
                       for old, new in zip(caches, caches_now))


def shape(trie: SealableTrie) -> list:
    """What a reader can see of every node, in walk order: its kind,
    its hash and its cached aggregate (``None`` while unsummed)."""
    return [(type(node).__name__, node.hash(),
             node._agg if isinstance(node, (BranchNode, ExtensionNode)) else None)
            for node in nodes(trie)]


def proofs(trie: SealableTrie) -> list:
    out = []
    for probe in KEYS:
        for walk in (trie.prove, trie.prove_absence):
            try:
                out.append(walk(probe).to_bytes())
            except ReproError as exc:
                out.append(type(exc))
    return out


def outcome(action) -> type | None:
    try:
        action()
    except ReproError as exc:
        return type(exc)
    return None


def guarded(trie: SealableTrie, action) -> type | None:
    """Run ``action``; a refusal must leave ``trie`` untouched."""
    before = (trie._root, filled(trie))
    refused = outcome(action)
    if refused is not None:
        assert (trie._root, filled(trie)) == before, (
            f"refused {refused.__name__} edited the trie")
    return refused


def agree(real: SealableTrie, twin: SealableTrie) -> None:
    assert real.root_hash == twin.root_hash
    assert shape(real) == shape(twin)
    assert proofs(real) == proofs(twin)
    for trie in (real, twin):
        cached = getattr(trie._root, "_agg", None)
        assert cached is None or cached == trie.recount_aggregates()


@settings(max_examples=300, deadline=None)
@given(st.lists(op, max_size=40))
def test_in_place_edits_match_the_path_copying_twin(ops):
    real, twin = SealableTrie(), PathCopyingTrie()
    views: list[tuple[SealableTrie, SealableTrie]] = []
    for step in ops:
        kind = step[0]
        if kind in ("set", "delete", "seal"):
            args = step[1:]
            seen = tuple(view for view, _ in views)
            before = filled(*seen)
            assert (guarded(real, lambda: getattr(real, kind)(*args))
                    == guarded(twin, lambda: getattr(twin, kind)(*args)))
            only_filled(before, seen)
        elif kind == "snapshot":
            if len(views) == MAX_VIEWS:
                views.pop(0)
            views.append((real.snapshot(), twin.snapshot()))
        elif kind == "view_set" and views:
            view, twin_view = views[step[1] % len(views)]
            roots = [other.root_hash for pair in views for other in pair
                     if other is not view and other is not twin_view]
            live = (real.root_hash, twin.root_hash)
            others = (real,) + tuple(other for other, _ in views if other is not view)
            before = filled(*others)
            assert (guarded(view, lambda: view.set(*step[2:]))
                    == guarded(twin_view, lambda: twin_view.set(*step[2:])))
            only_filled(before, others)
            assert (real.root_hash, twin.root_hash) == live
            assert roots == [other.root_hash for pair in views for other in pair
                             if other is not view and other is not twin_view]
        elif kind == "count":
            assert real.node_count() == twin.node_count()
            assert real.storage_bytes() == twin.storage_bytes()
        elif kind == "check":
            agree(real, twin)
    agree(real, twin)
    for view, twin_view in views:
        agree(view, twin_view)


def test_refused_operations_change_nothing():
    """Each refusal the guest relies on, against a warm trie that owns
    every node on the refused path: a write into a sealed stub, a
    delete of a missing key, a second seal."""
    trie = SealableTrie()
    for probe in KEYS[3:]:
        trie.set(probe, b"v")
    trie.seal(bytes([0x10, 0x00]))
    trie.node_count()                  # warm every aggregate ...
    assert trie.root_hash is not None  # ... and every hash
    assert all(node._owner is trie._token for node in nodes(trie)
               if isinstance(node, (BranchNode, ExtensionNode)))
    for refused in (lambda: trie.set(bytes([0x10, 0x00]), b"again"),
                    lambda: trie.delete(bytes([0x10, 0x00])),
                    lambda: trie.delete(bytes([0x21, 0x77])),
                    lambda: trie.seal(bytes([0x10, 0x00])),
                    lambda: trie.seal(bytes([0x35, 0x00]))):
        assert guarded(trie, refused) is not None


def test_an_owned_path_is_edited_in_place_and_a_viewed_one_is_copied():
    trie = SealableTrie()
    for probe in KEYS[3:]:
        trie.set(probe, b"v")
    root = trie._root
    trie.set(bytes([0x21, 0x01]), b"w")
    assert trie._root is root                 # owned: edited in place
    view = trie.snapshot()
    trie.set(bytes([0x21, 0x01]), b"x")
    assert trie._root is not root             # seen by a view: copied
    assert view._root is root and view.get(bytes([0x21, 0x01])) == b"w"
    copied = trie._root
    trie.set(bytes([0x21, 0x10]), b"y")
    assert trie._root is copied               # the copy is owned
    view.set(bytes([0x21, 0x01]), b"z")
    assert view._root is not root             # a view owns nothing it shares
    assert trie.get(bytes([0x21, 0x01])) == b"x"


def test_a_copy_keeps_its_own_partial_child_hash_list():
    """A frozen branch whose child-hash cache still has holes (a write
    since it was last hashed) is copied by a value write.  The copy is
    owned, so the next write under it patches its list in place: the
    list must be the copy's own, or the frozen original loses a hash it
    had filled."""
    trie = SealableTrie()
    for probe in KEYS:
        trie.set(probe, b"v")
    assert trie.root_hash is not None          # every cache a full tuple
    trie.set(bytes([0x10, 0x00]), b"w")        # holes along the path
    view = trie.snapshot()
    before = filled(view)                      # hashing would fill them
    trie.set(bytes([0x10]), b"w")              # branch value: a copy
    trie.set(bytes([0x10, 0x10]), b"w")        # in place under the copy
    only_filled(before, (view,))
    rebuilt = SealableTrie()
    for probe in KEYS:
        rebuilt.set(probe, b"w" if probe == bytes([0x10, 0x00]) else b"v")
    assert view.root_hash == rebuilt.root_hash
