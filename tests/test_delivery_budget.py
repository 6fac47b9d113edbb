"""A regression gate on batched packet delivery that reads no clock:
how many host transactions, and how many bytes, one delivered packet
costs the relayer.

A flush proves ~30 sequence-adjacent commitments under one root at one
height.  Shipped as one membership witness per proof height — each
trie node of the union of their paths once — instead of one path per
packet, its payload is about an eighth of the bytes and the bundle a
ninth of the transactions (docs/PERFORMANCE.md, "Prove a batch once").
The loaded link of ``tests/test_lc_update_budget.py`` (20 pps of
counterparty sends, batching 32 / 2 s, ~90 simulated seconds) is
watched at the host's RPC edge, where delivery bundles go in: counts
and byte sums of a seeded run, so the gate cannot flake the way a
timing would.  Reads 0.17 transactions and 145 payload bytes per
packet (a 32-packet flush is six transactions); one path per packet
read 1.49 and 1 145.  A classic link (``batch_max_packets`` = 1) goes
down the same pipeline as bundles of one operation: pinned at its
transactions and staged bytes per packet, with no batch built.
"""

import pytest

from repro.experiments.throughput import build_linked_deployment
from repro.guest import instructions as ins
from repro.guest.instructions import Op
from repro.relayer.relayer import BATCH_MAX_BUNDLE_TXS, CONFIRMS_PER_TX
from repro.workload import WorkloadEngine, WorkloadSpec

from tests.helpers import batch_bundle_payload
from tests.test_lc_update_budget import BATCHING, GUEST

PACKETS = 1_800


class BundleTap:
    """Every bundle handed to ``host.submit_bundle`` that ends in a
    BATCH_EXEC, with the payload it stages and runs, and the number of
    CONFIRM_ACK instructions of each confirm-seal transaction handed to
    ``host.submit``."""

    def __init__(self, dep):
        self.limit = dep.host.config.max_transaction_bytes
        self.bundles = []   # [(transactions, payload)]
        self.confirm_txs = []   # [CONFIRM_ACK instructions]
        self._submit_bundle = dep.host.submit_bundle
        dep.host.submit_bundle = self.submit_bundle
        self._submit = dep.host.submit
        dep.host.submit = self.submit

    def submit(self, transaction, on_result=None):
        codes = [ins.data[0] for ins in transaction.instructions]
        if codes[0] == Op.CONFIRM_ACK:
            assert set(codes) == {Op.CONFIRM_ACK}
            self.confirm_txs.append(len(codes))
        return self._submit(transaction, on_result=on_result)

    def submit_bundle(self, transactions, tip_lamports, on_result=None):
        last = transactions[-1].instructions[0].data
        if last[0] == Op.BATCH_EXEC:
            self.bundles.append(
                (list(transactions), batch_bundle_payload(transactions)))
        return self._submit_bundle(transactions, tip_lamports, on_result=on_result)


@pytest.fixture(scope="module", params=[0, 1, 2])
def delivered(request):
    """The loaded link, its delivery bundles tapped and the contract's
    witness decodes counted."""
    from repro.trie.proof import MembershipWitness
    folds = []
    from_bytes = MembershipWitness.from_bytes
    patch = pytest.MonkeyPatch()
    patch.setattr(MembershipWitness, "from_bytes", classmethod(
        lambda cls, data: folds.append(len(data)) or from_bytes(data)))
    try:
        dep, channels = build_linked_deployment(request.param, GUEST, BATCHING, 1)
        tap = BundleTap(dep)
        engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=20.0, duration=90.0, drain_seconds=60.0))
        engine.start()
        dep.sim.run_until(engine.end_time)
    finally:
        patch.undo()
    assert engine.delivered == engine.sent == PACKETS
    assert dep.trace_report().counter("host.tx.failed") == 0
    return dep, tap, folds


def test_a_delivered_packet_costs_a_third_of_a_transaction(delivered):
    dep, tap, _ = delivered
    transactions = sum(len(txs) for txs, _ in tap.bundles)
    assert transactions <= 0.35 * PACKETS
    # What the ledger's ``relayer.delivery_txs_per_packet`` reads.
    deliveries = dep.relayer.metrics.deliveries
    assert sum(d.packet_count for d in deliveries) == PACKETS
    assert sum(d.transaction_count for d in deliveries) == transactions


def test_a_delivered_packet_costs_260_payload_bytes(delivered):
    dep, tap, _ = delivered
    shipped = sum(len(payload) for _, payload in tap.bundles)
    assert shipped <= 260 * PACKETS
    # The relayer's own histograms say the same, witness share included.
    report = dep.trace_report()
    assert sum(report.histogram("relay.batch.payload_bytes")) == shipped
    assert sum(report.histogram("relay.batch.packets")) == PACKETS
    assert sum(report.histogram("relay.batch.witness_bytes")) <= 0.7 * shipped


#: The loaded link's confirm-seal transactions per seed, pinned from
#: the relayer that flushed its batched seals straight to the host: a
#: flush of ~40 seals goes out as two transactions of at most 24
#: CONFIRM_ACK instructions, not one per seal.
CONFIRM_TRANSACTIONS = {0: 78, 1: 79, 2: 77}


def test_seals_coalesce_two_dozen_per_transaction(delivered):
    dep, tap, _ = delivered
    assert len(tap.confirm_txs) == CONFIRM_TRANSACTIONS[dep.config.seed]
    # Every delivered packet's ack sealed once, ≤ 24 seals a transaction.
    assert sum(tap.confirm_txs) == PACKETS
    assert max(tap.confirm_txs) <= CONFIRMS_PER_TX


def test_every_bundle_is_schedulable(delivered):
    _, tap, _ = delivered
    for transactions, _ in tap.bundles:
        assert len(transactions) <= BATCH_MAX_BUNDLE_TXS
        for transaction in transactions:
            transaction.check_size(tap.limit)
    # One buffer's pieces in order, then one exec, nothing else: checked
    # by ``batch_bundle_payload`` as each bundle went in.


def test_one_witness_fold_per_bundle_and_height(delivered):
    dep, tap, folds = delivered
    expected = []
    for _, payload in tap.bundles:
        witnesses, entries = ins.read_batch_payload(payload)
        assert set(witnesses) == {msg.proof_height for _, msg in entries}
        assert all(kind == Op.RECV_EXEC and not msg.proof_bytes
                   for kind, msg in entries)
        expected += [len(raw) for raw in witnesses.values()]
    # Each shipped witness is decoded, hence folded, exactly once — by
    # the contract, in whatever order the host ran the bundles; nothing
    # folds a witness per entry.
    assert sorted(folds) == sorted(expected)
    report = dep.trace_report()
    assert len(report.histogram("guest.batch.witness_nodes")) == len(folds)
    assert report.counter("guest.batch.witnesses_refused") == 0
    assert report.counter("guest.batch.entries_failed") == 0


# ----------------------------------------------------------------------
# The classic flow: a bundle per packet (batch_max_packets = 1)
# ----------------------------------------------------------------------

#: The classic link below, pinned from the two-path relayer's run: its
#: delivery bundles' transactions (2.47 per packet) and the message
#: bytes they stage (891 per packet).  A bundle of one operation is
#: §V-A's staged RECV_EXEC bundle of its own proof.
CLASSIC_PACKETS = 300
CLASSIC_TRANSACTIONS = 742
CLASSIC_STAGED_BYTES = 267_296


def staged_message(transactions) -> bytes:
    """What a one-packet delivery bundle stages: its CHUNK pieces, in
    order, ahead of the RECV_EXEC that runs them."""
    from repro.encoding import Reader
    *chunk_txs, exec_tx = transactions
    assert exec_tx.instructions[0].data[0] == Op.RECV_EXEC
    pieces = []
    for transaction in chunk_txs:
        (chunk_ins,) = transaction.instructions
        assert chunk_ins.data[0] == Op.CHUNK
        chunk = Reader(chunk_ins.data[1:])
        chunk.read_varint(), chunk.read_varint(), chunk.read_varint()
        pieces.append(chunk.read_bytes())
    return b"".join(pieces)


def test_a_classic_link_ships_each_packet_alone():
    """A link that flushes every operation at once ships each packet as
    its own §V-A bundle: the same transactions and bytes per packet as
    the bundle-per-packet path always did, and no batch is ever built
    for a bundle of one."""
    from repro.guest.api import Batch
    batches = []
    of = Batch.of
    patch = pytest.MonkeyPatch()
    patch.setattr(Batch, "of", classmethod(
        lambda cls, ops: batches.append(len(ops)) or of(ops)))
    bundles = []
    try:
        dep, channels = build_linked_deployment(0, GUEST, (1, 2.0), 1)
        submit_bundle = dep.host.submit_bundle

        def tap(transactions, tip_lamports, on_result=None):
            if transactions[-1].instructions[0].data[0] == Op.RECV_EXEC:
                bundles.append(list(transactions))
            return submit_bundle(transactions, tip_lamports, on_result=on_result)

        dep.host.submit_bundle = tap
        engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=5.0, duration=60.0, drain_seconds=60.0))
        engine.start()
        dep.sim.run_until(engine.end_time)
    finally:
        patch.undo()
    assert engine.delivered == engine.sent == CLASSIC_PACKETS == len(bundles)
    assert batches == []
    assert sum(len(transactions) for transactions in bundles) == CLASSIC_TRANSACTIONS
    assert sum(len(staged_message(transactions))
               for transactions in bundles) == CLASSIC_STAGED_BYTES
