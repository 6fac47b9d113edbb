"""The checkpoint subsystem: codec, registry, manifest, file format.

The heavyweight guarantee — restore + replay is bit-identical — lives
in ``test_replay_audit.py``; these tests pin the machinery underneath:
closure serialization (shared values, recursive cycles, deep chains),
the callback registry's snapshot-time validation, manifest auditing on
restore, the binary container, and the rewindable id mints.
"""

import pickle

import pytest

from repro import Deployment, DeploymentConfig
from repro import ids
from repro.checkpoint import (
    CODEC_VERSION,
    PYTHON_TAG,
    Checkpoint,
    CheckpointError,
    dumps_world,
    loads_world,
    restore_world,
    snapshot_world,
    validation_errors,
)
from repro.checkpoint.snapshot import CheckpointManifest, world_roots
from repro.guest.config import GuestConfig
from repro.ibc.identifiers import PortId
from repro.trie.nodes import BranchNode, ExtensionNode

from tests.test_trie_in_place import nodes
from repro.validators.profiles import simple_profiles


def small_config(seed=71, delta=120.0, **kw):
    return DeploymentConfig(
        seed=seed,
        guest=GuestConfig(delta_seconds=delta, min_stake_lamports=1),
        profiles=simple_profiles(4),
        **kw,
    )


def roundtrip(obj):
    return loads_world(dumps_world(obj))


# ----------------------------------------------------------------------
# Codec: closures
# ----------------------------------------------------------------------


def make_counter(start):
    count = {"value": start}

    def bump(step=1):
        count["value"] += step
        return count["value"]

    def read():
        return count["value"]

    return bump, read


class TestClosureCodec:
    def test_closure_roundtrip_keeps_captured_state(self):
        bump, _ = make_counter(10)
        bump()
        restored = roundtrip(bump)
        assert restored() == 12
        assert restored(5) == 17

    def test_two_closures_share_one_captured_object(self):
        bump, read = make_counter(0)
        bump2, read2 = roundtrip((bump, read))
        bump2()
        bump2()
        assert read2() == 2  # both closures see the one restored dict

    def test_recursive_closure_cycle(self):
        # A closure whose cell contains itself (the guest API's ``pump``
        # pattern) must terminate through the pickle memo.
        def make_pump():
            state = {"calls": 0}

            def pump(n):
                state["calls"] += 1
                if n > 0:
                    return pump(n - 1)
                return state["calls"]

            return pump

        restored = roundtrip(make_pump())
        assert restored(4) == 5

    def test_deep_closure_chain(self):
        # Continuation chains grow thousands of links under congestion;
        # the codec runs on a big-stack thread so this must just work.
        def link(nxt):
            def step():
                return 1 + (nxt() if nxt is not None else 0)

            return step

        chain = None
        for _ in range(5_000):
            chain = link(chain)
        restored = roundtrip(chain)
        # Calling 5000 deep would blow the *test's* stack; walk the
        # restored cells instead and check every link survived.
        depth = 0
        while restored is not None:
            depth += 1
            restored = restored.__closure__[0].cell_contents
        assert depth == 5_000

    def test_lambda_and_defaults(self):
        offset = 3
        fn = lambda x, y=10, *, z=2: x + y + z + offset  # noqa: E731
        restored = roundtrip(fn)
        assert restored(1) == 16
        assert restored(1, y=0, z=0) == 4

    def test_module_level_function_by_reference(self):
        assert roundtrip(make_counter) is make_counter

    def test_plain_pickle_still_refuses_closures(self):
        bump, _ = make_counter(0)
        with pytest.raises(Exception):
            pickle.dumps(bump)

    def test_python_tag_guard(self):
        payload = dumps_world({"x": 1})
        assert loads_world(payload, python_tag=PYTHON_TAG) == {"x": 1}
        with pytest.raises(CheckpointError, match="Python"):
            loads_world(payload, python_tag="2.7")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class _ForeignActor:
    def poke(self):
        pass


class TestRegistry:
    def test_repro_closures_and_methods_pass(self):
        deployment = Deployment(small_config())
        assert validation_errors(
            handle.callback for _, handle in deployment.sim.iter_pending()
        ) == []

    def test_builtin_container_method_passes(self):
        fired = []
        assert validation_errors([fired.append]) == []

    def test_foreign_closure_is_named_in_the_error(self):
        # This test module is not a registered namespace, so a closure
        # minted here must fail validation with a pointed message.
        def local_closure():
            pass

        problems = validation_errors([local_closure])
        assert len(problems) == 1
        assert "local_closure" in problems[0]

    def test_foreign_actor_method_fails_then_registers(self):
        from repro.checkpoint import register_actor

        actor = _ForeignActor()
        assert validation_errors([actor.poke])
        try:
            register_actor(_ForeignActor)
            assert validation_errors([actor.poke]) == []
        finally:
            from repro.checkpoint import registry

            registry._ACTOR_CLASSES.discard(_ForeignActor)


# ----------------------------------------------------------------------
# Snapshot / restore / container
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_world():
    """A linked deployment with a little traffic in flight."""
    deployment = Deployment(small_config())
    channels = deployment.establish_link()
    deployment.run_for(60.0)
    return deployment, channels


class TestSnapshotRestore:
    def test_manifest_matches_world(self, live_world):
        deployment, _ = live_world
        checkpoint = snapshot_world(deployment, label="unit")
        manifest = checkpoint.manifest
        assert manifest.label == "unit"
        assert manifest.seed == deployment.config.seed
        assert manifest.sim_now == deployment.sim.now
        assert manifest.store_roots == world_roots(deployment)

    def test_restore_passes_audit_and_preserves_roots(self, live_world):
        deployment, _ = live_world
        checkpoint = snapshot_world(deployment)
        restored, extras = restore_world(checkpoint)
        assert extras == {}
        assert world_roots(restored) == world_roots(deployment)
        assert restored.sim.now == deployment.sim.now
        assert restored.sim.pending_events() == deployment.sim.pending_events()

    def test_derived_values_ride_the_checkpoint_and_stay_true(self, live_world):
        """Digests kept on their immutable owners (``repro.derive``) are
        pickled with them: a restored world starts warm, and what it
        carries is what a cold copy of the same fields derives."""
        import dataclasses

        deployment, _ = live_world
        restored, _ = restore_world(snapshot_world(deployment))
        records = list(restored.counterparty.blocks.values())
        assert len(records) > 5
        for record in records:
            valset = record.validator_set
            assert "_canonical_hash" in vars(valset)
            assert (valset.canonical_hash()
                    == dataclasses.replace(valset).canonical_hash()
                    == record.header.validators_hash)
        blocks = restored.contract.blocks
        assert any("_fingerprint" in vars(block.header) for block in blocks)
        for block in blocks:
            assert (block.header.fingerprint()
                    == dataclasses.replace(block.header).fingerprint())
        assert [block.header.fingerprint() for block in blocks] == [
            block.header.fingerprint() for block in deployment.contract.blocks]

    def test_a_sleeping_host_restores_asleep_and_wakes_on_its_grid(self):
        """A host chain with an empty mempool has no tick in the event
        queue: what it pickles is where its slot grid stands.  Restored,
        it numbers the slots it slept through and wakes for the same
        transaction at the same instant as the world that ran on."""
        deployment = Deployment(small_config(seed=73, tracing=True))
        guest_channel, _ = deployment.establish_link()
        while deployment.host._slot_handle is not None:
            deployment.sim.step()
        deployment.run_for(7.3)  # deep in the sleep, off the slot grid
        assert deployment.host._slot_handle is None
        checkpoint = Checkpoint.from_bytes(snapshot_world(deployment).to_bytes())

        def finish(world):
            slot_at_snapshot = world.host.slot
            world.contract.bank.mint("alice", "GUEST", 1_000)
            world.user_api.send_packet(
                "transfer", str(guest_channel),
                world.contract.transfer.make_payload(
                    guest_channel, "GUEST", 250, "alice", "bob"))
            world.run_for(180.0)
            assert world.contract.ibc.counters.packets_acknowledged == 1
            return (slot_at_snapshot, world.host.slot, world.sim.now,
                    world.sim.dispatched_events(), world.sim.pending_events(),
                    world_roots(world),
                    [(block.slot, block.time,
                      [(receipt.tx_id, receipt.success, receipt.fee_paid)
                       for receipt in block.receipts])
                     for block in world.host.blocks],
                    sorted(world.trace_report().counters.items()))

        straight = finish(deployment)
        restored, _ = restore_world(checkpoint)
        assert restored.host._slot_handle is None
        assert finish(restored) == straight

    def test_a_world_mid_establishment_restores_and_runs_on_identically(self):
        """The relayer's guest-side markers ride the checkpoint: taken
        while a channel handshake step waits on a guest height and acks
        wait on their committing blocks, the restored world runs on
        event for event and root for root with the one that did not
        stop."""
        deployment = Deployment(small_config(seed=75))
        deployment.establish_link()
        relayer, guest = deployment.relayer, deployment.relayer.a
        counterparty = deployment.counterparty
        counterparty.bank.mint("carol", "PICA", 1_000)
        _, cp_channel = sorted(relayer.b.channels)[0]
        port = PortId("transfer")

        def send():
            counterparty.ibc.send_packet(
                port, cp_channel, counterparty.transfer.make_payload(
                    cp_channel, "PICA", 10, "carol", "dave"), 0.0)

        def parked() -> set[str]:
            """What waits in the guest end's one list: ``"prove"`` is a
            handshake step, ``"<lambda>"`` an ack on its way home."""
            return {action.__code__.co_name for _, action in guest.waiters}

        for _ in range(5):
            counterparty.submit(send)
        while "<lambda>" not in parked():
            deployment.sim.step()
        # A second channel over the open connection, with more sends.
        relayer.open_channel(port, port, {}.__setitem__)
        for _ in range(5):
            counterparty.submit(send)
        while parked() != {"prove", "<lambda>"} and deployment.sim.now < 300.0:
            deployment.sim.step()
        assert parked() == {"prove", "<lambda>"}
        checkpoint = Checkpoint.from_bytes(snapshot_world(deployment).to_bytes())

        def run_on(world):
            world.run_for(300.0)
            guest_end = world.relayer.a
            assert len(guest_end.channels) == 2
            return (world.sim.now, world.sim.dispatched_events(),
                    world.sim.pending_events(), world_roots(world),
                    world.contract.ibc.counters.packets_received,
                    world.counterparty.ibc.counters.packets_acknowledged)

        straight = run_on(deployment)
        restored, _ = restore_world(checkpoint)
        assert run_on(restored) == straight

    def test_trie_ownership_rides_the_checkpoint(self):
        """A store's edit token and its nodes' owners are pickled with
        the world.  Taken mid-traffic, between two guest blocks, the
        restored guest store still owns the nodes written since the last
        block and edits them in place, every state view keeps the root
        of its block header, and the world runs on bit for bit — edit
        for edit — with the one that did not stop."""
        deployment = Deployment(small_config(seed=77))
        deployment.establish_link()
        counterparty = deployment.counterparty
        counterparty.bank.mint("carol", "PICA", 1_000)
        _, cp_channel = sorted(deployment.relayer.b.channels)[0]

        def send():
            counterparty.ibc.send_packet(
                PortId("transfer"), cp_channel, counterparty.transfer.make_payload(
                    cp_channel, "PICA", 10, "carol", "dave"), 0.0)

        def owned(world) -> int:
            trie = world.contract.store.trie
            return sum(getattr(node, "_owner", None) is trie._token
                       for node in nodes(trie))

        for _ in range(8):
            counterparty.submit(send)
        while not owned(deployment) or (
                deployment.contract.ibc.counters.packets_received < 2):
            deployment.sim.step()
        checkpoint = Checkpoint.from_bytes(snapshot_world(deployment).to_bytes())

        def run_on(world):
            headers = {block.header.height: block.header.state_root
                       for block in world.contract.blocks}
            views = dict(world.contract._state_views)
            edits = {"in place": 0, "copied": 0}

            def counted(edit):
                def count(node, *args):
                    edited = edit(node, *args)
                    edits["in place" if edited is node else "copied"] += 1
                    return edited
                return count

            with pytest.MonkeyPatch.context() as patch:
                for cls, name in ((BranchNode, "replacing_child"),
                                  (BranchNode, "replacing_value"),
                                  (ExtensionNode, "replacing_child")):
                    patch.setattr(cls, name, counted(getattr(cls, name)))
                world.run_for(240.0)
            assert world.contract.ibc.counters.packets_received == 8
            for height, view in views.items():
                assert view.root_hash == headers[height]
            assert edits["in place"] > edits["copied"] > 0
            return (edits, world.sim.now, world.sim.dispatched_events(),
                    world_roots(world),
                    [block.header.state_root for block in world.contract.blocks])

        owned_at_checkpoint = owned(deployment)
        straight = run_on(deployment)
        restored, _ = restore_world(checkpoint)
        assert owned(restored) == owned_at_checkpoint > 0
        assert run_on(restored) == straight

    def test_tampered_manifest_fails_audit(self, live_world):
        deployment, _ = live_world
        checkpoint = snapshot_world(deployment)
        import dataclasses

        bent = Checkpoint(
            manifest=dataclasses.replace(checkpoint.manifest,
                                         sim_now=checkpoint.manifest.sim_now + 1.0),
            payload=checkpoint.payload,
        )
        with pytest.raises(CheckpointError, match="sim_now"):
            restore_world(bent)

    def test_file_container_roundtrip(self, live_world, tmp_path):
        deployment, _ = live_world
        checkpoint = snapshot_world(deployment, label="disk")
        path = str(tmp_path / "world.ckpt")
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.manifest == checkpoint.manifest
        assert loaded.payload == checkpoint.payload

    def test_bad_magic_and_schema_are_rejected(self, live_world):
        deployment, _ = live_world
        data = snapshot_world(deployment).to_bytes()
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.from_bytes(b"NOPE" + data[4:])
        with pytest.raises(CheckpointError, match="schema"):
            Checkpoint.from_bytes(data[:4] + bytes([250]) + data[5:])

    @pytest.mark.parametrize("cut, complaint", [
        pytest.param(lambda data: data[:4], "header", id="magic-only"),
        pytest.param(lambda data: data[:7], "header", id="inside-length-field"),
        pytest.param(lambda data: data[:9 + 40], "manifest", id="inside-manifest"),
        pytest.param(lambda data: data[:5] + bytes(4), "manifest",
                     id="zero-length-manifest"),
    ])
    def test_a_container_cut_short_is_refused(self, live_world, cut, complaint):
        """A half-copied ``task-<i>.ckpt`` is the one error its reader
        handles, wherever the copy stopped — not an ``IndexError`` from
        the header or a ``JSONDecodeError`` from the manifest."""
        deployment, _ = live_world
        data = snapshot_world(deployment).to_bytes()
        assert int.from_bytes(data[5:9], "big") > 40
        with pytest.raises(CheckpointError, match=complaint):
            Checkpoint.from_bytes(cut(data))

    def test_a_payload_of_another_object_layout_is_refused(self, live_world):
        """docs/CHECKPOINT.md, versioning rules: a payload whose pickled
        classes had other fields (an ``Account`` with a blob and no
        ``size``) is refused by version, never half-restored."""
        import dataclasses

        deployment, _ = live_world
        checkpoint = snapshot_world(deployment)
        assert checkpoint.manifest.codec_version == CODEC_VERSION
        older = Checkpoint(
            manifest=dataclasses.replace(checkpoint.manifest,
                                         codec_version=CODEC_VERSION - 1),
            payload=checkpoint.payload,
        )
        with pytest.raises(CheckpointError, match="codec"):
            restore_world(Checkpoint.from_bytes(older.to_bytes()))

    def test_manifest_json_roundtrip(self, live_world):
        deployment, _ = live_world
        manifest = snapshot_world(deployment).manifest
        assert CheckpointManifest.from_json(manifest.to_json()) == manifest


# ----------------------------------------------------------------------
# Rewindable id mints
# ----------------------------------------------------------------------


class TestMints:
    def test_mint_counts_and_rewinds(self):
        mint = ids.Mint(5)
        assert next(mint) == 5
        assert next(mint) == 6
        assert mint.peek() == 7
        mint.rewind(5)
        assert next(mint) == 5

    def test_restore_rewinds_global_mints(self, live_world):
        deployment, _ = live_world
        checkpoint = snapshot_world(deployment)
        tx_mint = ids.mint("host.tx")
        before = tx_mint.peek()
        next(tx_mint)
        next(tx_mint)
        restore_world(checkpoint)
        assert tx_mint.peek() == before

    def test_unknown_mint_names_are_ignored(self):
        ids.rewind_mints({"no-such-mint": 99})
