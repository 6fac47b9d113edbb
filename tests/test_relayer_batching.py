"""Batched relaying is a pure optimisation — property and unit tests.

The workload PR's batching path coalesces many pending packets into one
BATCH_EXEC host transaction.  That must never be observable at the IBC
layer: delivering N pending packets in *any* split into batches, in any
order, with any duplicates mixed in, has to land the receiver in exactly
the state one-at-a-time relaying produces — same store root, same acks,
same bank balances.  This file checks that equivalence at four levels:

* hypothesis property tests over a two-IbcHost link (random splits,
  permutations and duplicate injections, ≥200 sequences);
* ``GuestApi.deliver`` packing: one payload (a witness per proof
  height, then the entries) cut contiguously, every emitted transaction
  inside the 1232-byte cap, far fewer of them than per-packet staging;
* the guest contract's BATCH_EXEC: every refusal of a malformed payload
  before the first mutation, per-entry error isolation behind a sound
  one, and the BatchProcessed event;
* a fabric of batching relayers, where ack and timeout entries and
  guest-guest bundles ride batches too.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Deployment, DeploymentConfig
from repro.encoding import encode_bytes
from repro.errors import DoubleDeliveryError, PacketError
from repro.guest import instructions as ins
from repro.guest.api import Batch, BatchOp
from repro.guest.config import GuestConfig
from repro.ibc import commitment as paths
from repro.trie.nibbles import encode_nibbles
from repro.trie.proof import MembershipWitness
from repro.validators.profiles import simple_profiles

from tests.helpers import bare_host, batch_bundle_payload
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


@settings(max_examples=120, deadline=None)
@given(_batch_cases())
def test_one_witness_per_batch_matches_per_packet_proofs(case):
    """The same split, each batch proven once: every packet of a group
    goes through ``recv_packet`` with the group's one witness where the
    property above hands it its own path."""
    payloads, groups, dupes = case

    single = Link()
    single.open(port=single.echo_port)
    packets, proofs, height = _send_pending(single, payloads)
    single_acks = {
        p.sequence: single.a.recv_packet(p, proofs[p.sequence], height)
        for p in packets
    }

    batched = Link()
    batched.open(port=batched.echo_port)
    packets, proofs, height = _send_pending(batched, payloads)
    batched_acks = {}
    for group in groups:
        witness = MembershipWitness.from_bytes(MembershipWitness.merge(
            proofs[packets[index].sequence] for index in group).to_bytes())
        for index in group:
            packet = packets[index]
            batched_acks[packet.sequence] = batched.a.recv_packet(
                packet, witness, height)
        for index in sorted(dupes & set(group)):
            with pytest.raises(DoubleDeliveryError):
                batched.a.recv_packet(packets[index], witness, height)
        # A packet the group's witness does not hold is not proven by it.
        for index in sorted(set(range(len(packets))) - set(group))[:1]:
            root_before = batched.a.store.root_hash
            with pytest.raises(PacketError):
                batched.a.recv_packet(packets[index], witness, height)
            assert batched.a.store.root_hash == root_before

    assert batched_acks == single_acks
    assert _receiver_state(batched) == _receiver_state(single)


def test_an_ack_cannot_be_claimed_for_a_neighbouring_sequence():
    """Every successful transfer is acknowledged with the same bytes,
    so the witness holds the *value* an unreceived packet's ack would
    have; only the key walked to it says whose ack it is."""
    link = Link()
    link.open()
    payloads = []
    for i in range(2):
        link.bank_b.mint(f"alice-{i}", "uatom", 9)
        payloads.append(link.app_b.make_payload(
            link.chan_b, "uatom", 9, f"alice-{i}", f"bob-{i}"))
    (first, second), proofs, height = _send_pending(link, payloads)
    ack = link.a.recv_packet(first, proofs[first.sequence], height)
    assert ack.success
    height = link.sync()
    witness = MembershipWitness.merge([link.a.store.prove_seq(
        paths.ack_prefix(link.port, link.chan_a), first.sequence)])
    assert ack.commitment() in witness.entries.values()
    with pytest.raises(PacketError):
        link.b.acknowledge_packet(second, ack, witness, height)
    assert link.b.counters.packets_acknowledged == 0
    link.b.acknowledge_packet(first, ack, witness, height)
    assert link.b.counters.packets_acknowledged == 1


# ----------------------------------------------------------------------
# Level 2: GuestApi.deliver packing respects the 1232-byte cap
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
    batch of them cannot ride inline and must be chunk-staged."""
    host = bare_host("proof-mill")
    for index in range(2_000):
        key = hashlib.sha256(b"mill" + index.to_bytes(8, "big")).digest()
        host.store.trie.set(key, key)
    return host


def _ops_over(host, count, payload):
    """``count`` recv operations whose proofs are taken under one root,
    as a flush's are (one witness merges them)."""
    from repro.ibc.identifiers import ChannelId, PortId
    from repro.ibc.packet import Packet
    for i in range(count):
        host.store.set(f"pkt/{i}", b"x" * 8)
    return [
        BatchOp(kind="recv",
                packet=Packet(i, PortId("transfer"), ChannelId("channel-0"),
                              PortId("transfer"), ChannelId("channel-0"),
                              payload, 0.0),
                proof=host.store.prove(f"pkt/{i}"), proof_height=1)
        for i in range(count)
    ]


def _pending_ops(count, payload_size=64):
    return _ops_over(_proof_factory(), count, b"p" * payload_size)


def _capture_bundle(monkeypatch, api):
    captured = {}

    def fake_submit_bundle(transactions, tip_lamports=0, on_result=None):
        captured["transactions"] = list(transactions)

    monkeypatch.setattr(api.chain, "submit_bundle", fake_submit_bundle)
    return captured


class TestDeliverBatchPacking:
    def test_empty_batch_rejected(self, packing_dep):
        with pytest.raises(ValueError):
            packing_dep.relayer_api.deliver([])

    def test_small_batch_is_one_transaction(self, packing_dep, monkeypatch):
        """A payload that fits rides whole in the single BATCH_EXEC
        transaction — no staging traffic at all."""
        api = packing_dep.relayer_api
        ops = _ops_over(bare_host("tiny"), 3, b"tiny")
        captured = _capture_bundle(monkeypatch, api)
        api.deliver(ops)
        transactions = captured["transactions"]
        assert len(transactions) == 1 == api.batch_transactions(Batch.of(ops))
        (exec_tx,) = transactions
        exec_tx.check_size(api.chain.config.max_transaction_bytes)
        assert batch_bundle_payload(transactions) == Batch.of(ops).payload

    def test_an_op_is_frozen_and_serialised_once(self, packing_dep, monkeypatch):
        """The relayer cuts a flush by the size of the payload it built
        and ``deliver`` ships those bytes: one serialisation per
        operation and one encode per witness serve both."""
        import dataclasses
        op, other = _pending_ops(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.proof_height = 2
        serialised, encoded = [], []
        to_bytes = ins.BufferedPacketMsg.to_bytes
        monkeypatch.setattr(
            ins.BufferedPacketMsg, "to_bytes",
            lambda msg: serialised.append(msg) or to_bytes(msg))
        witness_to_bytes = MembershipWitness.to_bytes
        monkeypatch.setattr(
            MembershipWitness, "to_bytes",
            lambda witness: encoded.append(witness) or witness_to_bytes(witness))
        api = packing_dep.relayer_api
        batch = Batch.of([op, other])
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.payload = b""
        assert len(serialised) == 2 and len(encoded) == 1
        # Sized, then shipped: nothing is encoded again.
        captured = _capture_bundle(monkeypatch, api)
        assert api.batch_transactions(batch) >= 1
        api.deliver(batch)
        assert batch_bundle_payload(captured["transactions"]) == batch.payload
        assert len(serialised) == 2 and len(encoded) == 1
        # A copy at another height is another entry under another witness.
        moved = dataclasses.replace(op, proof_height=2)
        assert moved.entry_bytes() != op.entry_bytes()
        assert len(Batch.of([moved, other]).witness_sizes) == 2

    def test_every_transaction_fits_the_host_cap(self, packing_dep, monkeypatch):
        api = packing_dep.relayer_api
        ops = _pending_ops(6)
        batch = Batch.of(ops)
        captured = _capture_bundle(monkeypatch, api)
        api.deliver(batch)
        transactions = captured["transactions"]
        limit = api.chain.config.max_transaction_bytes
        for tx in transactions:
            tx.check_size(limit)  # raises TransactionTooLargeError if not
        # What was measured is what went out: whole CHUNK pieces of one
        # buffer, then exactly one BATCH_EXEC carrying the tail.
        assert 1 < len(transactions) == api.batch_transactions(batch)
        assert batch_bundle_payload(transactions) == batch.payload
        witnesses, entries = ins.read_batch_payload(batch.payload)
        assert list(witnesses) == [1] and len(witnesses[1]) == batch.witness_sizes[0]
        assert [kind for kind, _ in entries] == [ins.Op.RECV_EXEC] * len(ops)
        # One witness stands for every operation's own path; even these
        # unrelated hashed paths share their top branch.
        witness = MembershipWitness.from_bytes(witnesses[1])
        assert witness.entries == {op.proof.key: op.proof.value for op in ops}
        assert len(witnesses[1]) < 0.6 * sum(len(op.proof.to_bytes()) for op in ops)

    def test_dense_packing_beats_per_packet_staging(self, packing_dep, monkeypatch):
        """The point of the batch path: one payload for all the
        messages, so the bundle is materially smaller than N
        packet-at-a-time deliveries."""
        from repro.lightclient.chunked import usable_chunk_bytes
        api = packing_dep.relayer_api
        ops = _pending_ops(6)
        captured = _capture_bundle(monkeypatch, api)
        api.deliver(ops)
        batched_txs = len(captured["transactions"])
        chunk = usable_chunk_bytes(api.chain.config.max_transaction_bytes)
        per_packet_txs = sum(
            -(-len(ins.BufferedPacketMsg(
                op.packet.to_bytes(), op.proof.to_bytes(), op.proof_height,
            ).to_bytes()) // chunk) + 1  # chunks + the exec tx
            for op in ops
        )
        assert batched_txs < per_packet_txs


# ----------------------------------------------------------------------
# Level 3: the guest contract's BATCH_EXEC semantics
# ----------------------------------------------------------------------

def _entry(kind, packet_bytes=b"", height=1, proof_bytes=b""):
    """Hand-encode one payload entry, bypassing ``BatchOp`` so the
    contract's own checks are exercised."""
    return bytes([kind]) + ins.BufferedPacketMsg(
        packet_bytes=packet_bytes, proof_bytes=proof_bytes,
        proof_height=height).to_bytes()


def _leaf(path=(), value=b"v"):
    return b"\x00" + encode_bytes(encode_nibbles(path)) + encode_bytes(value)


def _extension(path, child):
    return b"\x01" + encode_bytes(encode_nibbles(path)) + child


def _branch(occupied, expanded, *children):
    return (b"\x02" + occupied.to_bytes(2, "big") + expanded.to_bytes(2, "big")
            + b"\x00" + b"".join(children))


_KEY = tuple(range(16)) * 4   # the 64 nibbles of a 32-byte key

#: Malformed witnesses, each refused whole: name -> (bytes, error).
MALFORMED_WITNESSES = {
    "tag": (b"\x07", "unknown witness node tag"),
    "empty-slot": (
        _branch(0b0001, 0b0011, _leaf(_KEY[1:]), _leaf(_KEY[1:])),
        "expands an empty branch slot"),
    "ext-path": (
        _extension((), _leaf(_KEY)), "extension with an empty path"),
    "half-byte": (_leaf(_KEY[:63]), "ends on a half byte"),
    "too-deep": (
        _extension(_KEY, _branch(0b0001, 0b0001, _leaf())),
        "deeper than a key is long"),
    "long-leaf": (
        _leaf(_KEY + (0, 0)), "deeper than a key is long"),
    "trailing": (_leaf(_KEY) + b"\x00", "trailing bytes"),
    "truncated": (_branch(0b0011, 0b0001, _leaf(_KEY[1:])), "truncated"),
}


class TestBatchExecContract:
    @pytest.fixture
    def dep(self):
        dep = Deployment(DeploymentConfig(
            seed=11,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4), tracing=True,
        ))
        dep.establish_link()
        return dep

    def _run_batch(self, dep, data):
        from tests.test_guest_contract import run_tx
        events = []
        dep.host.subscribe("BatchProcessed", events.append)
        receipt = run_tx(dep, data)
        return receipt, events

    def _refused(self, dep, payload, error):
        """The whole transaction fails on ``error`` and nothing moved."""
        root_before = dep.contract.ibc.store.root_hash
        receipt, events = self._run_batch(dep, ins.batch_exec(None, payload))
        assert not receipt.success and error in receipt.error
        assert not events
        assert dep.contract.ibc.store.root_hash == root_before

    def test_empty_batch_fails_whole_transaction(self, dep):
        with pytest.raises(ValueError):
            ins.batch_payload([], [])
        self._refused(dep, b"\x00\x00", "empty batch")

    def test_unknown_staging_flag_fails_before_execution(self, dep):
        """A payload rides whole in the instruction (0) or behind one
        staged buffer (1); the two entry modes it replaced are gone."""
        good = ins.batch_payload([(1, _leaf(_KEY))], [_entry(ins.Op.SEND_PACKET)])
        data = ins.batch_exec(None, good)
        receipt, events = self._run_batch(dep, data[:1] + b"\x02" + data[2:])
        assert not receipt.success and "staging flag 2" in receipt.error
        assert not events

    @pytest.mark.parametrize("name", sorted(MALFORMED_WITNESSES))
    def test_malformed_witness_is_refused(self, dep, name):
        """Decode-before-execute: a witness the codec refuses aborts the
        whole transaction up front instead of half-applying the batch."""
        witness, error = MALFORMED_WITNESSES[name]
        payload = ins.batch_payload(
            [(1, witness)], [_entry(ins.Op.TIMEOUT_EXEC), _entry(ins.Op.RECV_EXEC)])
        self._refused(dep, payload, error)
        assert dep.trace_report().counter("guest.batch.witnesses_refused") == 1

    def test_two_witnesses_for_one_height_are_refused(self, dep):
        payload = ins.batch_payload(
            [(1, _leaf(_KEY)), (1, _leaf(_KEY))], [_entry(ins.Op.RECV_EXEC)])
        self._refused(dep, payload, "two witnesses for height 1")

    @pytest.mark.parametrize("kind", [ins.Op.RECV_EXEC, ins.Op.ACK_EXEC])
    def test_entry_without_a_witness_is_refused(self, dep, kind):
        payload = ins.batch_payload(
            [(1, _leaf(_KEY))], [_entry(kind, height=1), _entry(kind, height=2)])
        self._refused(dep, payload, "height 2 has no witness")

    def test_trailing_payload_bytes_are_refused(self, dep):
        payload = ins.batch_payload(
            [(1, _leaf(_KEY))], [_entry(ins.Op.RECV_EXEC)]) + b"\x00"
        self._refused(dep, payload, "trailing bytes")

    def test_failed_entries_are_isolated(self, dep):
        """IBC-level failures (undecodable packets, bad proofs) are
        recorded per entry; the batch transaction itself succeeds and
        reports them through BatchProcessed."""
        payload = ins.batch_payload([(1, _leaf(_KEY))], [
            _entry(ins.Op.RECV_EXEC, packet_bytes=b"not-a-packet"),
            _entry(ins.Op.SEND_PACKET),
        ])
        root_before = dep.contract.ibc.store.root_hash
        receipt, events = self._run_batch(dep, ins.batch_exec(None, payload))
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
        report = dep.trace_report()
        assert report.histogram("guest.batch.witness_nodes") == [1]
        assert report.counter("guest.batch.witnesses_refused") == 0

    def test_a_refused_exec_keeps_its_staging_buffer(self, dep):
        """Every refusal comes before the first mutation: the host rolls
        back accounts, not the program's state, so a payload refused at
        its last byte must not have cost the buffer that staged it."""
        from tests.test_guest_contract import run_tx
        good = ins.batch_payload([(1, _leaf(_KEY))], [_entry(ins.Op.SEND_PACKET)])
        for buffer_id, payload, lands in ((70_001, good + b"\x00", False),
                                          (70_002, good, True)):
            head, tail = payload[:-3], payload[-3:]
            assert run_tx(dep, ins.chunk(buffer_id, 0, 1, head)).success
            held = dep.contract._buffers[(dep.user, buffer_id)]
            receipt, events = self._run_batch(dep, ins.batch_exec(buffer_id, tail))
            assert receipt.success == lands == bool(events)
            if lands:
                assert (dep.user, buffer_id) not in dep.contract._buffers
            else:
                assert dep.contract._buffers[(dep.user, buffer_id)] is held
                assert held.assembled() == head
        receipt, _ = self._run_batch(dep, ins.batch_exec(70_003, b""))
        assert not receipt.success and "unknown buffer" in receipt.error


class TestWitnessIsolation:
    """Sound payloads over real counterparty state: what one witness
    fails to prove costs exactly the entries that lean on it."""

    PACKETS = 3

    @pytest.fixture
    def link(self):
        """An established link whose relayer only watches, the guest's
        client brought to two counterparty heights with ``PACKETS``
        undelivered sends committed before each."""
        dep = Deployment(DeploymentConfig(
            seed=12,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            profiles=simple_profiles(4), tracing=True,
        ))
        guest_channel, cp_channel = dep.establish_link()
        dep.run_for(30.0)
        dep.relayer.paused = True
        cp = dep.counterparty
        cp.bank.mint("carol", "PICA", 1_000)
        heights, packets = [], []

        def send():
            # A receiver each, so no two packets commit to the same bytes.
            packets.append(cp.ibc.send_packet(
                cp.transfer_port, cp_channel,
                cp.transfer.make_payload(cp_channel, "PICA", 5, "carol",
                                         f"dave-{len(packets)}"),
                0.0))

        for _ in range(2):
            for _ in range(self.PACKETS):
                cp.submit(send)
            dep.run_for(2 * cp.config.block_seconds)
            dep.relayer.a.updates.cover(cp.height, heights.append)
            dep.run_for(60.0)
        assert len(heights) == 2 and heights[0] < heights[1]
        assert len(packets) == 2 * self.PACKETS
        self.dep, self.heights, self.packets = dep, heights, packets
        self.voucher = dep.contract.transfer.voucher_denom(guest_channel, "PICA")
        return self

    def op(self, packet, height, view_height=None):
        view = self.dep.counterparty.store_at(view_height or height)
        proof = view.prove_seq(
            paths.commitment_prefix(packet.source_port, packet.source_channel),
            packet.sequence)
        return BatchOp(kind="recv", packet=packet, proof=proof,
                       proof_height=height)

    def deliver(self, batch):
        dep = self.dep
        events, results = [], []
        dep.host.subscribe("BatchProcessed", events.append)
        dep.relayer_api.deliver(batch, on_done=results.append)
        dep.run_for(30.0)
        (result,), (event,) = results, events
        assert result.success and result.packet_count == len(batch.ops)
        assert result.failed_entries == tuple(
            index for index, _, _ in event.payload["failures"])
        return event.payload

    def received(self):
        bank = self.dep.contract.bank
        return sum(bank.balance(f"dave-{i}", self.voucher) == 5
                   for i in range(len(self.packets)))

    def test_two_witnesses_land_every_entry(self, link):
        early, late = link.heights
        ops = ([link.op(p, early) for p in link.packets[:self.PACKETS]]
               + [link.op(p, late) for p in link.packets[self.PACKETS:]])
        batch = Batch.of(ops)
        assert len(batch.witness_sizes) == 2
        outcome = link.deliver(batch)
        assert outcome["ok"] == outcome["total"] == 2 * self.PACKETS
        assert link.received() == 2 * self.PACKETS
        report = link.dep.trace_report()
        assert len(report.histogram("guest.batch.witness_nodes")) == 2
        # Delivered twice: every entry now fails alone, as a duplicate.
        again = link.deliver(batch)
        assert again["ok"] == 0 and link.received() == 2 * self.PACKETS
        assert all("already received" in reason for _, _, reason in again["failures"])

    def test_a_wrong_root_fails_its_own_entries(self, link):
        """The early height's witness is well formed but folds to the
        late height's root: its three entries fail, each on its own,
        while the late height's entries in the same batch land."""
        early, late = link.heights
        wrong = [link.op(p, early, view_height=late)
                 for p in link.packets[:self.PACKETS]]
        right = [link.op(p, late) for p in link.packets[self.PACKETS:]]
        outcome = link.deliver(Batch.of(wrong + right))
        assert outcome["ok"] == self.PACKETS == link.received()
        assert [index for index, _, _ in outcome["failures"]] == [0, 1, 2]
        assert all("invalid commitment proof" in reason
                   for _, _, reason in outcome["failures"])
        # The same packets under their own root still land afterwards.
        retry = link.deliver(Batch.of(
            [link.op(p, early) for p in link.packets[:self.PACKETS]]))
        assert retry["ok"] == self.PACKETS and link.received() == 2 * self.PACKETS

    def test_a_missing_key_fails_only_its_entry(self, link):
        _, late = link.heights
        ops = [link.op(p, late) for p in link.packets]
        held = Batch.of(ops[1:])
        short = Batch(ops=tuple(ops), witness_sizes=held.witness_sizes,
                      payload=ins.batch_payload(
                          [(late, MembershipWitness.merge(
                              [op.proof for op in ops[1:]]).to_bytes())],
                          [op.entry_bytes() for op in ops]))
        outcome = link.deliver(short)
        assert outcome["total"] == len(ops) and outcome["ok"] == len(ops) - 1
        ((index, kind, reason),) = outcome["failures"]
        assert (index, kind) == (0, ins.Op.RECV_EXEC)
        assert "invalid commitment proof" in reason
        assert link.received() == len(ops) - 1

    def test_the_relayer_counts_only_the_entries_that_landed(self, link):
        """A relayed packet is a receive entry that landed
        (docs/OBSERVABILITY.md): of a landed bundle whose first entry
        the contract refuses on its own, as already received, the
        relayer books the others."""
        _, late = link.heights
        ops = [link.op(p, late) for p in link.packets]
        link.deliver(Batch.of(ops[:1]))
        dep, relayer = link.dep, link.dep.relayer
        report = dep.trace_report()
        relayed = relayer.metrics.packets_relayed_to_guest
        counted = report.counter("relay.packets.to_guest")
        failed = report.counter("guest.batch.entries_failed")
        relayer._submit(relayer.a, [(op, None) for op in ops], Batch.of(ops))
        dep.run_for(30.0)
        report = dep.trace_report()
        assert link.received() == len(ops)
        assert report.counter("guest.batch.entries_failed") == failed + 1
        assert relayer.metrics.packets_relayed_to_guest == relayed + len(ops) - 1
        assert report.counter("relay.packets.to_guest") == counted + len(ops) - 1

    def test_a_resequenced_packet_is_not_proven(self, link):
        """A packet re-sequenced onto a proven neighbour's number walks
        to that neighbour's leaf, which holds another commitment (the
        converse — the right value under the wrong key — is
        ``test_an_ack_cannot_be_claimed_for_a_neighbouring_sequence``)."""
        import dataclasses
        _, late = link.heights
        ops = [link.op(p, late) for p in link.packets[:2]]
        forged = dataclasses.replace(
            ops[0], packet=dataclasses.replace(
                ops[0].packet, sequence=ops[1].packet.sequence))
        outcome = link.deliver(Batch(
            ops=(forged,), witness_sizes=(),
            payload=ins.batch_payload(
                [(late, MembershipWitness.merge(
                    [op.proof for op in ops]).to_bytes())],
                [forged.entry_bytes()])))
        assert outcome["ok"] == 0 and link.received() == 0


# ----------------------------------------------------------------------
# Level 4: every entry kind through a batch, on every kind of link
# ----------------------------------------------------------------------

def test_batched_fabric_carries_acks_and_timeouts_as_entries():
    """The loaded-link workloads only batch receives.  Here two guests
    and a hub exchange transfers in all three directions through
    batching relayers, and the guest-guest relayer crashes and stays
    down long enough for short-timeout sends to expire: ack entries ride their height's
    witness beside recv entries, timeout entries keep their own absence
    proof, guest-guest bundles run behind a SIBLING_UPDATE prelude —
    and the only entries that fail are receives of expired packets,
    each on its own."""
    import random
    from dataclasses import replace

    from repro.fabric import build_fabric
    from repro.ibc.identifiers import ChannelId, PortId
    from repro.relayer.relayer import RelayerConfig
    from tests.test_fabric_properties import SHORT_TIMEOUT, _topology

    dep = build_fabric(replace(_topology(), relayer=RelayerConfig(
        batch_max_packets=16, batch_flush_seconds=2.0)))
    hub = dep.counterparties["hub"]
    hub.bank.mint("alice", "uatom", 1_000_000)
    for name in ("g0", "g1"):
        dep.guests[name].contract.bank.mint(
            str(dep.user[name]), f"stone{name[-1]}", 1_000_000)
    checker = dep.conservation_checker()
    sibling = dep.link_between("g0", "g1")
    batches = []
    dep.host.subscribe("BatchProcessed", batches.append)
    rng = random.Random(1)

    def one_send():
        fate, guest, amount = rng.random(), rng.choice(("g0", "g1")), rng.randint(1, 5)
        contract = dep.guests[guest].contract
        if fate < 0.4:
            chan = ChannelId(dep.link_between(guest, "hub").channels["hub"])
            hub.submit(lambda: hub.ibc.send_packet(
                PortId("transfer"), chan, hub.transfer.make_payload(
                    chan, "uatom", amount, sender="alice",
                    receiver=str(dep.user[guest])), 0.0))
            return
        to_hub = fate < 0.7
        link = dep.link_between(guest, "hub") if to_hub else sibling
        chan = ChannelId(link.channels[guest])
        payload = contract.transfer.make_payload(
            chan, f"stone{guest[-1]}", amount,
            sender=str(dep.user[guest]), receiver="collector")
        expires = not to_hub and rng.random() < 0.5
        dep.user_api[guest].send_packet(
            "transfer", str(chan), payload,
            dep.sim.now + SHORT_TIMEOUT if expires else 0.0)

    for _ in range(400):
        dep.sim.schedule(rng.uniform(0.0, 120.0), one_send)
    dep.sim.schedule(30.0, sibling.relayer.crash)
    dep.sim.schedule(330.0, sibling.relayer.restart)
    dep.run_for(2_400.0)

    for event in batches:
        for _, kind, reason in event.payload["failures"]:
            assert kind == ins.Op.RECV_EXEC and "expired" in reason
    for link in dep.links:
        metrics = link.relayer.metrics
        assert metrics.retries == 0 and metrics.acks_returned
        assert all(result.success for result in
                   metrics.deliveries + metrics.acks_returned)
        for end in (link.relayer.a, link.relayer.b):
            # No send of the link is still committed on either chain.
            assert not [write for write in end.ibc.standing.values()
                        if end.sends(write.packet)]
    assert sibling.relayer.metrics.timeouts_cancelled > 10
    assert sum(event.payload["ok"] for event in batches) > 400
    assert sum(len(event.payload["failures"]) for event in batches) > 10
    report = checker.check()
    assert report.ok, report.failures
