"""A gate that reads no clock on the *traffic* the program's caches and
its event queue were sized for (docs/PERFORMANCE.md, "Verify the
traffic").

A cache, a fast path or a compactor is an argument about what the
workloads offer: keys that come back, events that get cancelled, proofs
asked for twice.  The kernel's timestamp buckets, its tombstone
compaction, the trie's proof memo and gossip's chaos-free fast path
were each added from one profile and deleted once their hit counts over
the ledger's five workloads were taken (4-15 %, never ran, 0 of 37 600
proofs, 0 calls).  This gate keeps the counts those decisions rest on
repeatable, over the loaded link of ``tests/test_delivery_budget.py``
(20 pps of counterparty sends, batching 32 / 2 s, handshakes included):
the two caches that stayed still hit, cancellations are still rare,
no proof is still ever walked twice, none is walked in vain (each
guest write names the block that commits it, so nothing is proven on
trial), and the stores' tries still edit most nodes in place (a trie
copies only what a snapshot can see, and the link takes one per
block).  Counts of a seeded run, so a failure is the code's or the
traffic's, and its message says which mechanism to re-measure before
anything is added or removed.
"""

import pytest

from repro.errors import ReproError
from repro.experiments.throughput import build_linked_deployment
from repro.guest.instructions import Op
from repro.ibc import commitment as paths
from repro.trie.nibbles import encode_nibbles
from repro.trie.nodes import BranchNode, ExtensionNode
from repro.trie.store import _seq_key_head
from repro.trie.trie import SealableTrie
from repro.workload import WorkloadEngine, WorkloadSpec

from tests.test_delivery_budget import PACKETS
from tests.test_lc_update_budget import BATCHING, GUEST

KEPT_CACHES = {"encode_nibbles": encode_nibbles,       # trie/nibbles.py
               "_seq_key_head": _seq_key_head}         # trie/store.py
#: The node edits that are in place when the trie owns the node.
NODE_EDITS = ((BranchNode, "replacing_child"), (BranchNode, "replacing_value"),
              (ExtensionNode, "replacing_child"))


@pytest.fixture(scope="module", params=[0, 1, 2])
def traffic(request):
    """The loaded link from an empty world to its last delivery: every
    proof walked, as ``(trie handle, root, kind, key)``, and the keys
    whose walk raised; what the kept caches answered; the deployment;
    how many node edits were in place and how many copied."""
    proofs, raised = [], []
    edits = {"in place": 0, "copied": 0}
    before = {name: cache.cache_info() for name, cache in KEPT_CACHES.items()}

    def tap(kind, walk):
        def walked(trie, key):
            proofs.append((trie, trie.root_hash, kind, key))
            try:
                return walk(trie, key)
            except ReproError:
                raised.append(key)
                raise
        return walked

    def count(edit):
        def counted(node, *args):
            edited = edit(node, *args)
            edits["in place" if edited is node else "copied"] += 1
            return edited
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for kind in ("prove", "prove_absence"):
            patch.setattr(SealableTrie, kind, tap(kind, getattr(SealableTrie, kind)))
        for cls, name in NODE_EDITS:
            patch.setattr(cls, name, count(getattr(cls, name)))
        dep, channels = build_linked_deployment(request.param, GUEST, BATCHING, 1)
        engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=20.0, duration=90.0, drain_seconds=60.0))
        engine.start()
        dep.sim.run_until(engine.end_time)
    assert engine.delivered == engine.sent == PACKETS
    after = {name: cache.cache_info() for name, cache in KEPT_CACHES.items()}
    answered = {name: (after[name].hits - before[name].hits,
                       after[name].misses - before[name].misses)
                for name in KEPT_CACHES}
    return (proofs, raised), answered, dep, edits


@pytest.mark.parametrize("name", KEPT_CACHES)
def test_the_kept_caches_hit_ten_times_for_each_miss(traffic, name):
    _, answered, _, _ = traffic
    hits, misses = answered[name]
    assert hits >= 10 * max(misses, 1), (
        f"{name} answered {hits} of {hits + misses} calls from its LRU: it "
        f"was kept because every ledger workload re-asks it (the hit table "
        f"of docs/PERFORMANCE.md, 'Verify the traffic').  Re-take that table "
        f"and delete the cache if the traffic no longer comes back")


def test_cancellations_are_rare(traffic):
    _, _, dep, _ = traffic
    report = dep.trace_report()
    scheduled = report.counter("sim.events.scheduled")
    # Every cancel of a queued event, its time come or not (the tracer
    # counts one when it is popped).
    cancelled = (scheduled - report.counter("sim.events.dispatched")
                 - dep.sim.pending_events())
    assert scheduled > 5_000
    assert report.counter("sim.events.cancelled") <= cancelled <= 0.05 * scheduled, (
        f"{cancelled} of {scheduled} scheduled events were cancelled.  The "
        f"kernel (sim/kernel.py) leaves a cancelled event in its heap until "
        f"its time comes, which is right while cancellations are under 1 % "
        f"of the traffic; at this rate re-measure peak heap length and "
        f"cancels per workload before arguing for bulk removal")


def test_no_proof_is_walked_twice(traffic):
    (proofs, _), _, _, _ = traffic
    assert len(proofs) > PACKETS
    repeats = len(proofs) - len(set(proofs))
    assert repeats == 0, (
        f"{repeats} of {len(proofs)} proofs re-walked a key under a root and "
        f"trie handle that had already proven it.  SealableTrie.prove / "
        f"prove_absence keep nothing between calls because a relayer proved "
        f"each key once and carried the proof through every retry; count the "
        f"repeats per workload before arguing for a proof memo")


def test_the_link_executes_the_opcodes_it_is_known_to(traffic):
    """The dispatch probe's census (docs/PERFORMANCE.md, "One row per
    opcode"): a loaded link is staging, light-client updates, batched
    delivery, ack sealing and the guest's own blocks — no validator
    stakes after genesis, nothing is delivered packet by packet, and
    nobody misbehaves."""
    _, _, dep, _ = traffic
    report = dep.trace_report()
    executed = {op for op in Op if report.counter(f"guest.op.{op.name}")}
    assert executed == {
        Op.CONFIRM_ACK, Op.CHUNK, Op.LC_SIG_BATCH, Op.SIGN_BLOCK,
        Op.BATCH_EXEC, Op.GENERATE_BLOCK, Op.LC_FINALIZE, Op.HANDSHAKE}, (
        f"the loaded link executed {sorted(op.name for op in executed)}.  "
        f"An opcode that joined is new traffic to account for; one that "
        f"left is a handler the ledger no longer reaches: re-take the "
        f"five-workload census before keeping either")
    for op in executed:
        assert len(report.histogram(f"guest.op.{op.name}.cu")) == (
            report.counter(f"guest.op.{op.name}"))


def test_every_ack_is_walked_once_and_no_walk_raises(traffic):
    """Each guest write names the height of the block that commits it
    (``height_hint``), so the relayer proves an ack once, at a block
    that holds it, instead of trying every staged ack at every
    finalised block and throwing away the walks that raise."""
    (proofs, raised), _, dep, _ = traffic
    heads = {_seq_key_head(paths.ack_prefix(port, channel))
             for port, channel in dep.contract.ibc.channels}
    ack_walks = sum(1 for _, _, _, key in proofs if key[:24] in heads)
    returned = dep.counterparty.ibc.counters.packets_acknowledged
    assert not raised, (
        f"{len(raised)} of {len(proofs)} proof walks raised: a relayer path "
        f"proves on trial again.  A guest write's event names its committing "
        f"block; wait for that height instead of probing for it")
    assert ack_walks == returned == PACKETS, (
        f"{ack_walks} ack proofs walked for {returned} acks returned")


def test_the_stores_edit_in_place(traffic):
    """Both chains snapshot their store once per block, and between two
    blocks a loaded link writes each touched path several times: the
    first write after a snapshot copies its path, the rest edit it in
    place (docs/PERFORMANCE.md, "Copy only what a snapshot can see")."""
    _, _, _, edits = traffic
    assert edits["in place"] >= 20 * edits["copied"] > 0, (
        f"{edits['in place']} node edits in place for {edits['copied']} "
        f"copied: the link no longer rewrites what it wrote since the last "
        f"block.  Re-take the allocation census of every ledger workload "
        f"before keeping ownership in repro.trie.nodes")
