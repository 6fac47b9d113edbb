"""Golden vectors: the commitment scheme, pinned.

Every hash here anchors the wire/commitment format: light clients on
*other* chains must recompute these exact values, so any change to the
trie's node hashing, the packet commitment, the epoch hash, the block
fingerprint or the counterparty's validator-set hash is a consensus break.  If one of these tests fails, you have
changed the protocol — bump it consciously, never casually.
"""

import hashlib

from repro.accountability import AccountabilityProof, Finalisation, build_proof
from repro.crypto.hashing import Hash, hash_concat, merkle_root
from repro.crypto.simsig import SimSigScheme
from repro.guest.block import GuestBlockHeader, sign_message
from repro.guest.epoch import Epoch
from repro.ibc.identifiers import ChannelId, PortId
from repro.ibc.packet import Acknowledgement, Packet
from repro.lightclient.chunked import plan_update_chunks, validator_set_delta
from repro.lightclient.tendermint import (
    CometHeader,
    Commit,
    LightClientUpdate,
    ValidatorSet,
)
from repro.trie import (
    MembershipProof,
    MembershipWitness,
    NonMembershipProof,
    SealableTrie,
    verify_membership,
    verify_non_membership,
)
from repro.trie.proof import (
    BranchStep,
    EmptySlotEvidence,
    ExtensionStep,
    WitnessBranch,
    WitnessExtension,
    WitnessLeaf,
)
from repro.trie.store import ProvableStore, path_key, seq_key


class TestHashingVectors:
    def test_hash_concat(self):
        assert hash_concat(b"x", b"y").hex() == (
            "134dc4d08f99ce0e5d2cfccbe1dae2c1e52caea62add95f8bf142cfe6e39e5e4"
        )

    def test_merkle_root(self):
        assert merkle_root([b"a", b"b", b"c"]).hex() == (
            "e9636069c740c9ff51625b01a0b040396d265a9b920cc6febdfa5ecc9f58ecce"
        )


class TestTrieVectors:
    # Conscious protocol bump: leaf hashes now bind a *value commitment*
    # (hash of the value) instead of the raw value, so sealed leaf stubs
    # keep a fixed-size, re-pathable core.  All trie roots changed; the
    # invariants (seal root-neutral, delete == fresh rebuild) did not.
    def build(self):
        trie = SealableTrie()
        for index in range(16):
            key = hashlib.sha256(index.to_bytes(4, "big")).digest()
            trie.set(key, f"value-{index}".encode())
        return trie

    def test_sixteen_entry_root(self):
        assert self.build().root_hash.hex() == (
            "d33dada23a3e1dfac3c0e61c79e1fdd68170646bee4c00c4ba84a0df916b2a2e"
        )

    def test_seal_is_root_neutral(self):
        trie = self.build()
        trie.seal(hashlib.sha256((0).to_bytes(4, "big")).digest())
        assert trie.root_hash.hex() == (
            "d33dada23a3e1dfac3c0e61c79e1fdd68170646bee4c00c4ba84a0df916b2a2e"
        )

    def test_delete_root(self):
        trie = self.build()
        trie.seal(hashlib.sha256((0).to_bytes(4, "big")).digest())
        trie.delete(hashlib.sha256((5).to_bytes(4, "big")).digest())
        assert trie.root_hash.hex() == (
            "b1e0dd190b3eea40574c790253989781e0ecba324ad5dbcee479e0c9179722c4"
        )


class TestStoreVectors:
    def test_store_root(self):
        store = ProvableStore()
        store.set("connections/connection-0", b"conn")
        store.set_seq("commitments/ports/transfer/channels/channel-0", 3, b"\xaa" * 32)
        # Bumped with the value-commitment leaf hash (see TestTrieVectors).
        assert store.root_hash.hex() == (
            "2b2ea6cc7faa674f16d780a1c4b638aca27db42d31768d6042ccbd7e0bcadfdf"
        )

    def test_path_key(self):
        assert path_key("clients/client-0/clientState").hex() == (
            "83c641c82009cc4b8ffeae75a9bc2114dabd8d60196a8cdb957284b49f3cb5e8"
        )

    def test_seq_key_layout(self):
        key = seq_key("receipts/ports/transfer/channels/channel-0", 7)
        assert key.hex() == (
            "35d25534a57ebcbcc0194357d27243443f69f3d0a7f3c8800000000000000007"
        )
        # 24-byte hashed prefix, 8-byte big-endian sequence.
        assert key[24:] == (7).to_bytes(8, "big")


class TestProofWireVectors:
    """Proof bytes, pinned: a counterparty parses exactly these.  Taken
    before the hash-set codec and the node-hash framing were reworked
    (docs/PERFORMANCE.md, "Trie, second pass"), so they hold the wire
    format, not one implementation of it."""

    PREFIX = "receipts/ports/transfer/channels/channel-0"

    def build(self):
        """One hashed path beside 40 sequenced receipts (a root branch,
        then the extension over the shared key prefix, then branches on
        the sequence nibbles), with sequences 0x10-0x1e sealed: their
        branch is a stub whose slot 0xf was never written."""
        store = ProvableStore()
        store.set("connections/connection-0", b"conn")
        for sequence in range(0x29):
            if sequence != 0x1F:
                store.set_seq(self.PREFIX, sequence, b"receipt-%d" % sequence)
        for sequence in range(0x10, 0x1F):
            store.seal_seq(self.PREFIX, sequence)
        return store

    def test_store_root(self):
        assert self.build().root_hash.hex() == (
            "062cca5974c193c280e0af85ee8ab4aef492d4ca479fd5a5e1cf95df96231c17"
        )

    def test_membership_proof_bytes(self):
        store = self.build()
        proof = store.prove_seq(self.PREFIX, 0x23)
        assert [type(step) for step in proof.steps] == [
            BranchStep, ExtensionStep, BranchStep, BranchStep]
        wire = proof.to_bytes()
        assert wire.hex() == (
            "2035d25534a57ebcbcc0194357d27243443f69f3d0a7f3c88000000000000000"
            "230a726563656970742d3335010004010300043a6eedaa0e6bf0a053cb64b9ad"
            "3e551676d6386668012344f550e239b1ece18e000020015d25534a57ebcbcc01"
            "94357d27243443f69f3d0a7f3c880000000000000000010200030d0d7eca2495"
            "d67fb51fd0f2b01d8f91b7e75e4c4d5adad3c291e566055df490357bf7497847"
            "b301b7ed09dbcfe7c8fbb69a11f31c0818d5a64f6841d54362b200010300ffc5"
            "727633129a32fd9c2e46c30d0c9fe1d11634e302c0264b26e9ee91ba3a48fd4d"
            "999a71d28b6d89cefb1c63cb031de0e62b4e7bcae3e283d15463b7771d0e17ed"
            "2cf52d0b9107275eb2f46742ffb6bb492b65955c5973b68fdb9821fccd25ff8b"
            "1b2999d35c6c16c1c1018b87f7c6a3af5c8debee81c62856159365fa888cf298"
            "f98a6133222c92daab950a3ec0107e1f2980b51965794311580784d2044e1442"
            "97616688910a4896461b23f173c41774d19ef706e1e2a2f4423bb977dfa02268"
            "f9be933d1f25e3d72683716a474e65be4f9795b553969b7294ffc59e0ffb600d"
            "d261828f4d311c26ddbe30fd2dba30ed41a11d3e43753f9e4388938427433800"
        )
        assert MembershipProof.from_bytes(wire) == proof
        assert verify_membership(store.root_hash, proof)

    def test_absence_proof_through_a_sealed_branch_bytes(self):
        store = self.build()
        proof = store.prove_seq_absence(self.PREFIX, 0x1F)
        assert [type(step) for step in proof.steps] == [
            BranchStep, ExtensionStep, BranchStep]
        assert isinstance(proof.evidence, EmptySlotEvidence)
        wire = proof.to_bytes()
        assert wire.hex() == (
            "2035d25534a57ebcbcc0194357d27243443f69f3d0a7f3c88000000000000000"
            "1f03010300043a6eedaa0e6bf0a053cb64b9ad3e551676d6386668012344f550"
            "e239b1ece18e000020015d25534a57ebcbcc0194357d27243443f69f3d0a7f3c"
            "880000000000000000010100030d0d7eca2495d67fb51fd0f2b01d8f91b7e75e"
            "4c4d5adad3c291e566055df49058843c5bc08f4b3dc01a7e185b7cb90879c74f"
            "a6623fd6793f910c43a1816c2e00017fff704aa9a6ff186a608108a96fac4c77"
            "5aa6825a995355b94ce736a150f8989803c5d8e927d827660e0899a087408fec"
            "4492cdb2394cbb27d01ea411e8a411e377a1d9d300d806d6d66fe0c1fd402e7a"
            "e1db9faad71ba8b5cd47295070fb7b8bb5df13b3f76b8e87c51cc77531de3bb8"
            "d9e3a39608ba7f2771d8ff195b85b55b5e7f742760faffa9f1e5d0630c1dda44"
            "3b3f0c192b8eb2468fd67fc96462ffeb79cc0a1bc6059b72f3c14ded7287628a"
            "c80e554d7a7e4c8ce1951508732919ac95c5df08675028a9e61d7d98d1e73c2b"
            "432532f765c9c95b0d39fd23af298c8581e8244cf5db41e2ad20fb523eada0ff"
            "cdc7a65542a6eb922b3bdef5ddce61e74ae83c594249c1f5c274ce21c07301c0"
            "750ee1d68c032970206db9fe07e548d1f897a926c84ee975eaa2dccd5257f334"
            "60652af22620e67b88dbd4772b03f7bc2bc1fb4632d2b5c12ae5ebd894ff2cde"
            "6a31275ab0c050e821a0f40a4c31d3fa62a84e00c478d2a45faa85e81d42030e"
            "104a0ccaf14f240e5250ccfc4259b5334cc48a5a8cd4e983639dcf7c711a5e91"
            "ab4674f46e8bc3eaff8fdb3cfce113928928fdb422087c0f46085b5cf8813718"
            "24f2f38a73d17a0228219ffff261abf983907c4d958d567aad243761d9d98b8f"
            "e0123fa0363f866aff4b81ad73f480ffde00"
        )
        assert NonMembershipProof.from_bytes(wire) == proof
        assert verify_non_membership(store.root_hash, proof)

    def test_three_key_witness_bytes(self):
        """Receipts 0x05, 0x20 and 0x23: the root branch and the
        extension once, the branch on the high sequence nibble with two
        expanded slots (their hashes not shipped), under slot 2 the
        branch holding both 0x20 and 0x23."""
        store = self.build()
        singles = [store.prove_seq(self.PREFIX, sequence)
                   for sequence in (0x05, 0x20, 0x23)]
        witness = MembershipWitness.merge(singles)
        top = witness.node
        assert isinstance(top, WitnessBranch)
        (extension,) = [slot for slot in top.slots
                        if isinstance(slot, WitnessExtension)]
        fork = extension.child
        assert [type(slot) for slot in fork.slots if slot is not None] == [
            WitnessBranch, bytes, WitnessBranch]
        assert [type(slot) for slot in fork.slots[2].slots].count(WitnessLeaf) == 2
        assert witness.node_count == 8
        wire = witness.to_bytes()
        assert wire.hex() == (
            "02000c0008003a6eedaa0e6bf0a053cb64b9ad3e551676d6386668012344f550"
            "e239b1ece18e0120015d25534a57ebcbcc0194357d27243443f69f3d0a7f3c88"
            "000000000000000002000700050002ffff0020004398df241de091cdda94d522"
            "3c7499f9d91a49a77bfe0fcbdb4258718e0ba960ef1016a7f436eb2512b4fee0"
            "733ac1b3f7f26ba6628e635527fb90a155e64eceda9803746b89c921812c84f7"
            "c2d658bf2e9392d705fa3d7f1ddbd87e951e3ce2ee107664dcfb2a80b536d616"
            "5de216d955ab50cc999e3d58e7e9534398cee55bf8cb372eaf22d88b7fae96ab"
            "d1d855739fc3fb9d6beb203aabccf6d7a6f3efed00010009726563656970742d"
            "3503994de001f8b2319a8d2cb1a62949480db5622e54b5d39735bd52efcdd504"
            "c116df2acd92aae39697b12f9fbc5f80f95518bbfaea945722cfe0b990d139c0"
            "626767cd6540e299a05aef803bb3b14f19cfa67a0a9aeffb7a5f164aa7848000"
            "ca024e60e67b178e2db3a5765d8ebf9556b2b019af6f299421e50ce0f7621ab5"
            "05ec0adae3119cd874d02ebab1f128f896503593a78217369e98ef3efc98558b"
            "318756fc72218e990569a779ae9e7e505bcccbb44038a58b8d01bece8c912351"
            "06a437b736998a90381663a5f86c5dfa282ab839b14092e6f2c3b9fbe64cf5f5"
            "60097700bcbcd4caf29aa2296a01323c4968cd1d5c94f9209ff7ada4954811c8"
            "4135fb07be8e6c06e8f44e13b3aa5457fa5b4661586730009c2bee62d44ed2a1"
            "49f32fdb019b5e9cced12fadc37a51523bddde2557aa9907358b16af6321727b"
            "15357bf7497847b301b7ed09dbcfe7c8fbb69a11f31c0818d5a64f6841d54362"
            "b20201ff0009000001000a726563656970742d33324d999a71d28b6d89cefb1c"
            "63cb031de0e62b4e7bcae3e283d15463b7771d0e17ed2cf52d0b9107275eb2f4"
            "6742ffb6bb492b65955c5973b68fdb9821fccd25ff0001000a72656365697074"
            "2d33358b1b2999d35c6c16c1c1018b87f7c6a3af5c8debee81c62856159365fa"
            "888cf298f98a6133222c92daab950a3ec0107e1f2980b51965794311580784d2"
            "044e144297616688910a4896461b23f173c41774d19ef706e1e2a2f4423bb977"
            "dfa02268f9be933d1f25e3d72683716a474e65be4f9795b553969b7294ffc59e"
            "0ffb600dd261828f4d311c26ddbe30fd2dba30ed41a11d3e43753f9e43889384"
            "274338"
        )
        assert len(wire) == 867 < sum(len(p.to_bytes()) for p in singles) == 1567
        decoded = MembershipWitness.from_bytes(wire)
        assert decoded.node == witness.node and decoded.root == store.root_hash
        for single in singles:
            assert decoded.proves(store.root_hash, single.key, single.value)

    def test_one_key_witness_bytes(self):
        """The hashed path beside the receipts: the root branch with one
        expanded slot, and the leaf."""
        store = self.build()
        witness = MembershipWitness.merge(
            [store.prove("connections/connection-0")])
        assert witness.node_count == 2
        wire = witness.to_bytes()
        assert wire.hex() == (
            "02000c0004000021017fcae615d5b65ce6cc391a075c5502af40015fd444dc72"
            "43feec75713a50982004636f6e6e23e0aab485ca1c1d14154fb555a6c063bc75"
            "cf898123a25a5186c10a977a67d3"
        )
        assert MembershipWitness.from_bytes(wire).proves(
            store.root_hash, path_key("connections/connection-0"), b"conn")


class TestIbcVectors:
    def packet(self):
        return Packet(5, PortId("transfer"), ChannelId("channel-0"),
                      PortId("transfer"), ChannelId("channel-1"),
                      b"payload", 123.456)

    def test_packet_commitment(self):
        assert self.packet().commitment().hex() == (
            "1dd5c2aa4424b0242941d629eb3e152e51d2facbed912e508b29acae65d6eef6"
        )

    def test_packet_wire_bytes(self):
        assert self.packet().to_bytes().hex() == (
            "05087472616e73666572096368616e6e656c2d30087472616e73666572"
            "096368616e6e656c2d31077061796c6f6164c0c407"
        )

    def test_ack_commitment(self):
        assert Acknowledgement.ok(b"res").commitment().hex() == (
            "9bd7a04d838c8469f03480afbad6fe553af729dc414aec28b4ba29bfd45bd7cd"
        )


class TestGuestVectors:
    def epoch(self):
        scheme = SimSigScheme()
        keypairs = [
            scheme.keypair_from_seed(bytes([9]) + i.to_bytes(4, "big") + bytes(27))
            for i in range(3)
        ]
        return Epoch(
            epoch_id=2,
            validators={kp.public_key: 100 * (i + 1) for i, kp in enumerate(keypairs)},
            quorum_stake=401,
        )

    def test_epoch_hash(self):
        assert self.epoch().canonical_hash().hex() == (
            "6da71c731032ed3e939a18b53e574256333a3a7ab7207cb47b49c23544fd6ef1"
        )

    def test_block_fingerprint(self):
        epoch = self.epoch()
        header = GuestBlockHeader(
            height=9, prev_hash=Hash.of(b"parent"), timestamp=1234.5,
            host_slot=3086, state_root=Hash.of(b"state"), epoch_id=2,
            epoch_hash=epoch.canonical_hash(),
            packet_hashes=(Hash.of(b"p1"), Hash.of(b"p2")),
            last_in_epoch=True, next_epoch_hash=Hash.of(b"next"),
        )
        assert header.fingerprint().hex() == (
            "ece8288a6908c3a39975e9bcb1d9f39b740c440b68f7b480bf72db200ba25885"
        )

    def test_sign_message_layout(self):
        fingerprint = bytes.fromhex(
            "ece8288a6908c3a39975e9bcb1d9f39b740c440b68f7b480bf72db200ba25885"
        )
        message = sign_message(9, fingerprint)
        assert message[:10] == b"guest-sign"
        assert message[10:18] == (9).to_bytes(8, "big")
        assert message[18:] == fingerprint


class TestTendermintVectors:
    """The counterparty side: what a Tendermint header commits to and
    what the guest's on-chain client recomputes from staged bytes.  A
    faster preimage or a cached digest must land on these values."""

    def valset(self, third_power=250_000):
        scheme = SimSigScheme()
        self.keypairs = [
            scheme.keypair_from_seed(bytes([7]) + i.to_bytes(4, "big") + bytes(27))
            for i in range(4)
        ]
        # A repeated power, and one that needs all eight bytes.
        powers = (1_000_000, 250_000, third_power, (1 << 63) + 5)
        return ValidatorSet(members=tuple(
            (kp.public_key, power) for kp, power in zip(self.keypairs, powers)))

    def header(self):
        return CometHeader(
            chain_id="picasso-1", height=4242, time=25452.125,
            app_hash=Hash.of(b"app"),
            validators_hash=self.valset(262_144).canonical_hash(),
            next_validators_hash=self.valset().canonical_hash(),
        )

    def test_validator_set_hash(self):
        assert self.valset().canonical_hash().hex() == (
            "d196917aecc3532cbd501b258a5d5f171280a7790f3b6469cc442f0bc9421c40"
        )
        assert self.valset(262_144).canonical_hash().hex() == (
            "a100d51ab4fc28b650f60b0be11c7e3ad30aa9641134127ab57b7c01c3287a5c"
        )

    def test_header_sign_bytes(self):
        assert self.header().sign_bytes().hex() == (
            "1a71bd7d09ab2b01e89dab403763c36b6bcf94722c10b419040ee2f96c01f1a5"
        )

    def test_header_wire_bytes(self):
        assert self.header().to_bytes().hex() == (
            "097069636173736f2d319221ddbc910ca172cedcae47474b615c54d510a5d84a"
            "8dea3032e958587430b413538be3f333"
            "a100d51ab4fc28b650f60b0be11c7e3ad30aa9641134127ab57b7c01c3287a5c"
            "d196917aecc3532cbd501b258a5d5f171280a7790f3b6469cc442f0bc9421c40"
        )

    def test_validator_set_delta_wire_bytes(self):
        """One changed power, staged against the trusted set: kind 1,
        the base set's hash, one (index, power) pair."""
        trusted, changed, header = self.valset(), self.valset(262_144), self.header()
        assert validator_set_delta(changed, trusted) == [(2, 262_144)]
        message = header.sign_bytes()
        update = LightClientUpdate(
            header=header, validator_set=changed,
            commit=Commit(signatures=tuple(
                (kp.public_key, kp.sign(message)) for kp in self.keypairs)))
        staged = b"".join(plan_update_chunks(update, trusted).data_chunks)
        header_bytes = header.to_bytes()
        assert staged[:4 + len(header_bytes)] == (
            len(header_bytes).to_bytes(4, "big") + header_bytes)
        assert staged[4 + len(header_bytes):].hex() == (
            "00000026"
            "01"
            "d196917aecc3532cbd501b258a5d5f171280a7790f3b6469cc442f0bc9421c40"
            "01" "02" "808010"
        )


class TestAccountabilityVectors:
    """The AccountabilityProof encoding (docs/ACCOUNTABILITY.md).

    Proofs are submitted on chain and relayed to counterparty light
    clients, so both the wire bytes and the dedup ``proof_id`` are
    protocol surface: a fisherman and a contract that disagree on either
    can no longer prosecute the same equivocation exactly once.
    """

    def proof(self):
        scheme = SimSigScheme()
        keypairs = [
            scheme.keypair_from_seed(bytes([9]) + i.to_bytes(4, "big") + bytes(27))
            for i in range(3)
        ]
        epoch = Epoch(
            epoch_id=2,
            validators={kp.public_key: 100 * (i + 1)
                        for i, kp in enumerate(keypairs)},
            quorum_stake=401,
        )

        def side(commitment):
            message = sign_message(9, commitment)
            return Finalisation(
                commitment=commitment,
                sign_bytes=message,
                signatures=tuple(sorted(
                    ((kp.public_key, kp.sign(message)) for kp in keypairs),
                    key=lambda item: bytes(item[0]))),
            )

        # Built from the lexicographically *larger* commitment first:
        # canonicalisation must reorder, or the id splits in two.
        return build_proof("guest", 9, bytes(epoch.canonical_hash()),
                           side(b"\x02" * 32), side(b"\x01" * 32))

    def test_wire_bytes(self):
        wire = self.proof().to_bytes()
        assert len(wire) == 788
        assert hashlib.sha256(wire).hexdigest() == (
            "e6d4f7135d672cb9c0dc06de5e1e39142f29c2b7570a092e84aa4bc42837952b"
        )

    def test_round_trip_is_exact(self):
        proof = self.proof()
        assert AccountabilityProof.from_bytes(proof.to_bytes()) == proof

    def test_proof_id(self):
        proof = self.proof()
        assert proof.proof_id().hex() == (
            "47978fd47a61c97fac9993de0eab51c488936bf2958035cd8af360cbd72b6a26"
        )
        # Canonical side order: smaller commitment first.
        assert proof.first.commitment == b"\x01" * 32
