"""Batched relaying is a pure optimisation — property and unit tests.

The workload PR's batching path coalesces many pending packets into one
BATCH_EXEC host transaction.  That must never be observable at the IBC
layer: delivering N pending packets in *any* split into batches, in any
order, with any duplicates mixed in, has to land the receiver in exactly
the state one-at-a-time relaying produces — same store root, same acks,
same bank balances.  This file checks that equivalence at three levels:

* hypothesis property tests over a two-IbcHost link (random splits,
  permutations and duplicate injections, ≥200 sequences);
* ``GuestApi.deliver_batch`` packing: every emitted transaction fits the
  1232-byte cap and dense chunk packing beats per-packet staging;
* the guest contract's BATCH_EXEC decoder: atomic decode-then-execute,
  per-entry error isolation, and the BatchProcessed event.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Deployment, DeploymentConfig
from repro.errors import DoubleDeliveryError
from repro.guest import instructions as ins
from repro.guest.api import BatchOp
from repro.guest.config import GuestConfig
from repro.ibc import commitment as paths
from repro.ibc.host import IbcHost
from repro.validators.profiles import simple_profiles

from tests.test_ibc_core import Link


# ----------------------------------------------------------------------
# Level 1: batch split ≡ sequential delivery (protocol state machine)
# ----------------------------------------------------------------------

def _send_pending(link, payloads):
    """B sends ``payloads``; returns the pending packets with proofs."""
    packets = [link.b.send_packet(link.port, link.chan_b, p, 0.0)
               for p in payloads]
    height = link.sync()
    prefix = paths.commitment_prefix(link.port, link.chan_b)
    proofs = {p.sequence: link.b.store.prove_seq(prefix, p.sequence)
              for p in packets}
    return packets, proofs, height


def _receiver_state(link):
    return link.a.store.root_hash, link.a.counters.packets_received


# A split of n items into ordered groups: a permutation of the indices
# plus cut points.  Each group models one relayer batch.
@st.composite
def _splits(draw, n):
    order = draw(st.permutations(list(range(n))))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)),
                        max_size=n - 1) if n > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), n]
    return [order[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]]


@st.composite
def _batch_cases(draw):
    payloads = draw(st.lists(st.binary(min_size=0, max_size=48),
                             min_size=1, max_size=10))
    groups = draw(_splits(len(payloads)))
    # Indices to maliciously re-deliver right after their group lands.
    dupes = draw(st.sets(st.sampled_from(range(len(payloads))), max_size=3))
    return payloads, groups, dupes


@settings(max_examples=220, deadline=None)
@given(_batch_cases())
def test_any_batch_split_matches_sequential_delivery(case):
    payloads, groups, dupes = case

    # Reference: a fresh link relayed strictly one packet at a time, in
    # send order.
    sequential = Link()
    sequential.open(port=sequential.echo_port)
    packets, proofs, height = _send_pending(sequential, payloads)
    sequential_acks = {
        p.sequence: sequential.a.recv_packet(p, proofs[p.sequence], height)
        for p in packets
    }

    # Candidate: an identically-built link relayed in the drawn batch
    # split — arbitrary grouping and order, duplicates injected.
    batched = Link()
    batched.open(port=batched.echo_port)
    packets, proofs, height = _send_pending(batched, payloads)
    batched_acks = {}
    delivered = set()
    replay_attempts = 0
    for group in groups:
        for index in group:
            packet = packets[index]
            batched_acks[packet.sequence] = batched.a.recv_packet(
                packet, proofs[packet.sequence], height)
            delivered.add(index)
        root_before = batched.a.store.root_hash
        for index in sorted(dupes & delivered):
            packet = packets[index]
            replay_attempts += 1
            with pytest.raises(DoubleDeliveryError):
                batched.a.recv_packet(packet, proofs[packet.sequence], height)
            # A rejected duplicate leaves no trace in the store.
            assert batched.a.store.root_hash == root_before

    assert batched_acks == sequential_acks
    assert _receiver_state(batched) == _receiver_state(sequential)
    assert batched.a.counters.double_deliveries_rejected == replay_attempts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_split_preserves_transfer_bank_state(data):
    """The ICS-20 version of the same property: escrow/mint bookkeeping
    is identical whether transfers land singly or in batches."""
    amounts = data.draw(st.lists(st.integers(min_value=1, max_value=50),
                                 min_size=1, max_size=8), label="amounts")
    groups = data.draw(_splits(len(amounts)), label="groups")

    def run(split):
        link = Link()
        link.open()  # the ICS-20 transfer port
        payloads = []
        for i, amount in enumerate(amounts):
            link.bank_b.mint(f"alice-{i}", "uatom", amount)
            payloads.append(link.app_b.make_payload(
                link.chan_b, "uatom", amount, f"alice-{i}", f"bob-{i}"))
        packets, proofs, height = _send_pending(link, payloads)
        for group in split:
            for index in group:
                packet = packets[index]
                ack = link.a.recv_packet(packet, proofs[packet.sequence], height)
                assert ack.success
        return link

    sequential = run([[i] for i in range(len(amounts))])
    batched = run(groups)
    assert batched.a.store.root_hash == sequential.a.store.root_hash
    assert batched.bank_a._balances == sequential.bank_a._balances
    assert batched.bank_b._balances == sequential.bank_b._balances
    # Conservation: everything escrowed on B circulates as vouchers on A.
    voucher = batched.app_a.voucher_denom(batched.chan_a, "uatom")
    escrow = batched.app_b.escrow_address(batched.chan_b)
    assert (batched.bank_a.total_supply(voucher)
            == batched.bank_b.balance(escrow, "uatom")
            == sum(amounts))


# ----------------------------------------------------------------------
# Level 2: GuestApi.deliver_batch packing respects the 1232-byte cap
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def packing_dep():
    return Deployment(DeploymentConfig(
        seed=7,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))


def _proof_factory():
    """An IbcHost with a deep store: its proofs are large enough that a
    batched message cannot ride inline and must be chunk-staged."""
    host = IbcHost("proof-mill")
    for index in range(2_000):
        key = hashlib.sha256(b"mill" + index.to_bytes(8, "big")).digest()
        host.store.trie.set(key, key)
    return host


def _pending_ops(count, payload_size=64):
    from repro.ibc.identifiers import ChannelId, PortId
    from repro.ibc.packet import Packet
    host = _proof_factory()
    ops = []
    for i in range(count):
        key = f"pkt/{i}"
        host.store.set(key, b"x" * 8)
        proof = host.store.prove(key)
        packet = Packet(i, PortId("transfer"), ChannelId("channel-0"),
                        PortId("transfer"), ChannelId("channel-0"),
                        b"p" * payload_size, 0.0)
        ops.append(BatchOp(kind="recv", packet=packet, proof=proof,
                           proof_height=1))
    return ops


def _capture_bundle(monkeypatch, api):
    captured = {}

    def fake_submit_bundle(transactions, tip_lamports=0, on_result=None):
        captured["transactions"] = list(transactions)

    monkeypatch.setattr(api.chain, "submit_bundle", fake_submit_bundle)
    return captured


class TestDeliverBatchPacking:
    def test_empty_batch_rejected(self, packing_dep):
        with pytest.raises(ValueError):
            packing_dep.relayer_api.deliver_batch([])

    def test_small_batch_is_one_transaction(self, packing_dep, monkeypatch):
        """Messages that fit the inline budget share a single
        BATCH_EXEC transaction — no staging traffic at all."""
        api = packing_dep.relayer_api
        host = IbcHost("tiny")
        ops = []
        from repro.ibc.identifiers import ChannelId, PortId
        from repro.ibc.packet import Packet
        for i in range(3):
            host.store.set(f"k/{i}", b"v")
            ops.append(BatchOp(
                kind="recv",
                packet=Packet(i, PortId("transfer"), ChannelId("channel-0"),
                              PortId("transfer"), ChannelId("channel-0"),
                              b"tiny", 0.0),
                proof=host.store.prove(f"k/{i}"), proof_height=1,
            ))
        captured = _capture_bundle(monkeypatch, api)
        api.deliver_batch(ops)
        transactions = captured["transactions"]
        assert len(transactions) == 1
        (exec_tx,) = transactions
        exec_tx.check_size(api.chain.config.max_transaction_bytes)
        assert exec_tx.instructions[0].data[0] == ins.Op.BATCH_EXEC

    def test_an_op_is_frozen_and_serialised_once(self, packing_dep, monkeypatch):
        """The relayer sizes a bundle by ``len(op.msg_bytes())`` and
        ``deliver_batch`` ships the bytes: one serialisation serves both."""
        import dataclasses
        (op,) = _pending_ops(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.proof_height = 2
        serialised = []
        to_bytes = ins.BufferedPacketMsg.to_bytes
        monkeypatch.setattr(
            ins.BufferedPacketMsg, "to_bytes",
            lambda msg: serialised.append(msg) or to_bytes(msg))
        sized = op.msg_bytes()
        _capture_bundle(monkeypatch, packing_dep.relayer_api)
        packing_dep.relayer_api.deliver_batch([op])
        assert op.msg_bytes() is sized and len(serialised) == 1
        # A copy at another height is another message.
        moved = dataclasses.replace(op, proof_height=2)
        assert moved.msg_bytes() != sized and len(serialised) == 2

    def test_every_transaction_fits_the_host_cap(self, packing_dep, monkeypatch):
        api = packing_dep.relayer_api
        ops = _pending_ops(6)
        captured = _capture_bundle(monkeypatch, api)
        api.deliver_batch(ops)
        transactions = captured["transactions"]
        limit = api.chain.config.max_transaction_bytes
        for tx in transactions:
            tx.check_size(limit)  # raises TransactionTooLargeError if not
        # Exactly one BATCH_EXEC, at the end, carrying one entry per op.
        exec_tx = transactions[-1]
        assert exec_tx.instructions[0].data[0] == ins.Op.BATCH_EXEC
        from repro.encoding import Reader
        reader = Reader(exec_tx.instructions[0].data[1:])
        assert reader.read_varint() == len(ops)

    def test_dense_packing_beats_per_packet_staging(self, packing_dep, monkeypatch):
        """The point of the batch path: chunks from different messages
        share transactions, so the bundle is materially smaller than N
        packet-at-a-time deliveries."""
        from repro.lightclient.chunked import usable_chunk_bytes
        api = packing_dep.relayer_api
        ops = _pending_ops(6)
        captured = _capture_bundle(monkeypatch, api)
        api.deliver_batch(ops)
        batched_txs = len(captured["transactions"])
        chunk = usable_chunk_bytes(api.chain.config.max_transaction_bytes)
        per_packet_txs = sum(
            -(-len(op.msg_bytes()) // chunk) + 1  # chunks + the exec tx
            for op in ops
        )
        assert batched_txs < per_packet_txs


# ----------------------------------------------------------------------
# Level 3: the guest contract's BATCH_EXEC semantics
# ----------------------------------------------------------------------

def _raw_batch(entries):
    """Hand-encode a BATCH_EXEC payload, bypassing the client-side
    BATCHABLE_KINDS guard so the contract's own checks are exercised."""
    from repro.encoding import encode_bytes, encode_varint
    out = bytearray([ins.Op.BATCH_EXEC])
    out += encode_varint(len(entries))
    for kind, mode, body in entries:
        out.append(kind)
        out.append(mode)
        out += body if mode != ins.BATCH_MODE_INLINE else encode_bytes(body)
    return bytes(out)


def _inline_msg(proof_bytes=b"", packet_bytes=b""):
    return ins.BufferedPacketMsg(
        packet_bytes=packet_bytes, proof_bytes=proof_bytes, proof_height=1,
    ).to_bytes()


class TestBatchExecContract:
    @pytest.fixture
    def dep(self):
        dep = Deployment(DeploymentConfig(
            seed=11,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4),
        ))
        dep.establish_link()
        return dep

    def _run_batch(self, dep, data):
        from tests.test_guest_contract import run_tx
        events = []
        dep.host.subscribe("BatchProcessed", events.append)
        receipt = run_tx(dep, data)
        return receipt, events

    def test_empty_batch_fails_whole_transaction(self, dep):
        receipt, events = self._run_batch(dep, _raw_batch([]))
        assert not receipt.success
        assert "empty batch" in receipt.error
        assert not events

    def test_unknown_entry_mode_fails_before_execution(self, dep):
        """Decode-before-execute: a malformed entry aborts the whole
        transaction up front instead of half-applying the batch."""
        good = (int(ins.Op.RECV_EXEC), ins.BATCH_MODE_INLINE, _inline_msg())
        bad = (int(ins.Op.RECV_EXEC), 9, b"")
        receipt, events = self._run_batch(dep, _raw_batch([good, bad]))
        assert not receipt.success
        assert "mode" in receipt.error
        assert not events

    def test_failed_entries_are_isolated(self, dep):
        """IBC-level failures (undecodable packets, bad proofs) are
        recorded per entry; the batch transaction itself succeeds and
        reports them through BatchProcessed."""
        entries = [
            (int(ins.Op.RECV_EXEC), ins.BATCH_MODE_INLINE,
             _inline_msg(packet_bytes=b"not-a-packet")),
            (int(ins.Op.SEND_PACKET), ins.BATCH_MODE_INLINE, _inline_msg()),
        ]
        root_before = dep.contract.ibc.store.root_hash
        receipt, events = self._run_batch(dep, _raw_batch(entries))
        assert receipt.success
        assert len(events) == 1
        payload = events[0].payload
        assert payload["total"] == 2
        assert payload["ok"] == 0
        assert len(payload["failures"]) == 2
        # The non-batchable opcode is named in its failure record.
        assert any("not batchable" in reason
                   for _, _, reason in payload["failures"])
        # Nothing half-applied.
        assert dep.contract.ibc.store.root_hash == root_before
