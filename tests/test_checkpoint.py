"""The checkpoint subsystem: codec, registry, manifest, file format.

The heavyweight guarantee — restore + replay is bit-identical — lives
in ``test_replay_audit.py``; these tests pin the machinery underneath:
the continuation shapes the codec carries as plain pickle (shared
values, self-referencing actors, deep backlogs), the callback
registry's snapshot-time validation, manifest auditing on restore, the
binary container, and the rewindable id mints.
"""

import pickle
import re
import sys
import threading
from functools import partial

import pytest

from repro import Deployment, DeploymentConfig
from repro import ids
from repro.checkpoint import (
    CODEC_VERSION,
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
from tests.helpers import BlockRecorder, CounterpartyRecorder, writes_of
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
# Codec: continuations as plain data
# ----------------------------------------------------------------------


def make_counter(start):
    count = {"value": start}

    def bump(step=1):
        count["value"] += step
        return count["value"]

    def read():
        return count["value"]

    return bump, read


class Tally:
    """An actor with state; its continuations are partials of methods."""

    def __init__(self, start):
        self.counts = {"value": start}

    def bump(self, key, step=1):
        self.counts[key] += step
        return self.counts[key]


def bump_shared(shared, step=1):
    shared["value"] += step


def read_shared(shared):
    return shared["value"]


class Pump:
    """The shape of a chunked update in flight (``repro.guest.api.LcUpload``):
    an actor whose queued continuations are its own bound method."""

    def __init__(self, steps):
        self.calls = 0
        self.pending = [partial(self.step, steps)]

    def step(self, remaining):
        self.calls += 1
        if remaining > 0:
            self.pending.append(partial(self.step, remaining - 1))

    def run(self):
        while self.pending:
            self.pending.pop(0)()
        return self.calls


def record_cover(fired, index, height):
    fired.append((index, height))


class TestClosureCodec:
    def test_closure_roundtrip_keeps_captured_state(self):
        bump = partial(Tally(10).bump, "value")
        bump()
        restored = roundtrip(bump)
        assert restored() == 12
        assert restored(5) == 17

    def test_two_closures_share_one_captured_object(self):
        shared = {"value": 0}
        bump, read = partial(bump_shared, shared), partial(read_shared, shared)
        bump2, read2 = roundtrip((bump, read))
        bump2()
        bump2()
        assert read2() == 2  # both continuations see the one restored dict

    def test_recursive_closure_cycle(self):
        # An actor whose queued continuation refers back to the actor
        # itself (the guest API's LC upload) terminates through the
        # pickle memo and stays one actor.
        restored = roundtrip(Pump(4))
        assert restored.pending[0].func.__self__ is restored
        assert restored.run() == 5

    def test_deep_closure_chain(self):
        # A congested light-client backlog: 5 000 continuations queued
        # on one chunked update, restored in order by plain pickle on the
        # main thread at the default recursion limit.
        deployment = Deployment(small_config())
        updates = deployment.relayer.a.updates
        far = deployment.counterparty.height + 10_000
        fired = []
        for index in range(5_000):
            updates.cover(far + index, partial(record_cover, fired, index))
        assert len(updates._lc_queue) == 5_000
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert threading.current_thread() is threading.main_thread()
            restored = roundtrip(updates)
        finally:
            sys.setrecursionlimit(limit)
        queue = restored._lc_queue
        assert [height for height, _, _ in queue] == [
            far + index for index in range(5_000)]
        for height, action, _ in queue:
            action(height)
        (restored_fired,) = {id(action.args[0]): action.args[0]
                             for _, action, _ in queue}.values()
        assert restored_fired == [(index, far + index) for index in range(5_000)]
        assert fired == []  # the original backlog is untouched

    def test_module_level_function_by_reference(self):
        assert roundtrip(make_counter) is make_counter

    def test_plain_pickle_still_refuses_closures(self):
        bump, _ = make_counter(0)
        with pytest.raises(Exception):
            pickle.dumps(bump)

    def test_a_closure_in_an_actor_attribute_is_named_at_snapshot(self):
        # Not in the queue, so the registry never sees it: pickle itself
        # refuses it, and the error names it.
        deployment = Deployment(small_config())

        def tap(packet):
            pass

        deployment.counterparty.ibc.on_send = tap
        with pytest.raises(CheckpointError,
                           match=re.escape(tap.__qualname__)):
            snapshot_world(deployment)


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
        # A closure has no name to be restored by, so one minted here
        # must fail validation with a pointed message.
        def local_closure():
            pass

        problems = validation_errors([local_closure])
        assert len(problems) == 1
        assert "local_closure" in problems[0]

    def test_a_closure_is_refused_whatever_module_defines_it(self):
        def in_repro():
            pass

        in_repro.__module__ = "repro.sim.kernel"
        (problem,) = validation_errors([in_repro])
        assert "in_repro" in problem and "closure" in problem

    def test_a_partial_is_judged_by_its_func(self):
        deployment = Deployment(small_config())
        assert validation_errors([
            partial(deployment.relayer._relay_block, deployment.relayer.a),
            partial(record_cover, []),
        ]) == ["function record_cover defined in unregistered module "
               "'tests.test_checkpoint'"]

        def local_closure(height):
            pass

        (problem,) = validation_errors([partial(local_closure, 3)])
        assert "local_closure" in problem
        assert validation_errors([partial(_ForeignActor().poke)])

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

    def test_derived_values_ride_the_checkpoint_and_stay_true(self):
        """Digests kept on their immutable owners (``repro.derive``) are
        pickled with them: a restored world starts warm, and what it
        carries is what a cold copy of the same fields derives."""
        import dataclasses

        # The counterparty keeps only what its relayer can still reach:
        # a test-side recorder keeps every record, and rides along.
        deployment = Deployment(small_config())
        CounterpartyRecorder(deployment.counterparty)
        deployment.establish_link()
        deployment.run_for(60.0)
        restored, _ = restore_world(snapshot_world(deployment))
        records = list(CounterpartyRecorder.of(
            restored.counterparty).records.values())
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
        BlockRecorder(deployment.host)
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
                     for block in BlockRecorder.of(world.host).blocks],
                    sorted(world.trace_report().counters.items()))

        straight = finish(deployment)
        restored, _ = restore_world(checkpoint)
        assert restored.host._slot_handle is None
        assert finish(restored) == straight

    def test_a_world_mid_establishment_restores_and_runs_on_identically(self):
        """The relayer's guest-side markers and the chains' write
        indexes ride the checkpoint: taken while a channel handshake
        step waits on a guest height and acks the guest wrote wait for
        their committing blocks to be finalised, the restored world runs
        on event for event and root for root with the one that did not
        stop."""
        deployment = Deployment(small_config(seed=75))
        deployment.establish_link()
        relayer, guest = deployment.relayer, deployment.relayer.a
        counterparty = deployment.counterparty
        counterparty.bank.mint("carol", "PICA", 1_000)
        _, cp_channel = sorted(relayer.b.channels)[0]
        port = PortId("transfer")

        send = partial(counterparty.send_transfer, cp_channel, "PICA", 10,
                       "carol", "dave", 0.0, port)

        def parked() -> set[str]:
            """What waits for a guest block: ``"_prove"`` is a handshake
            step in the guest end's list, ``"ack"`` an ack the guest
            wrote in a block not yet finalised (its block owes it)."""
            final = guest.latest_final()
            return {action.func.__name__ for _, action in guest.waiters} | {
                write.kind for write in writes_of(guest.ibc, "ack")
                if write.height > final}

        for _ in range(5):
            counterparty.submit(send)
        while "ack" not in parked() and deployment.sim.now < 300.0:
            deployment.sim.step()
        # A second channel over the open connection, with more sends.
        relayer.open_channel(port, port, {}.__setitem__)
        for _ in range(5):
            counterparty.submit(send)
        while parked() != {"_prove", "ack"} and deployment.sim.now < 300.0:
            deployment.sim.step()
        assert parked() == {"_prove", "ack"}
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

        send = partial(counterparty.send_transfer, cp_channel, "PICA", 10,
                       "carol", "dave")

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
