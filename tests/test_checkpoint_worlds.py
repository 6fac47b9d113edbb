"""Every world ``src/`` builds is plain data, at any instant.

A continuation is a bound method or a partial over plain data, so
plain ``pickle`` takes a live world whole — no closure codec, no deep
stack: these tests pickle each kind of world (a linked deployment under
a workload engine, a fabric mid routed transfer, the evaluation run, a
chaos storm) at several points on the main thread at the default
recursion limit, and round-trip a fabric world mid-route.
"""

import pickle
import sys

import pytest

from repro.checkpoint import restore_world, snapshot_world
from repro.chaos import ChaosInjector
from repro.experiments.chaos import smoke_config, storm_plan
from repro.experiments.evaluation import EvaluationConfig, EvaluationRun
from repro.experiments.throughput import (
    ThroughputPointConfig,
    build_linked_deployment,
    start_point,
)
from repro.fabric import TopologyConfig, build_fabric
from repro.fabric.topology import CounterpartySpec, GuestSpec, LinkSpec, RouteSpec
from repro.guest.config import GuestConfig
from repro.workload import WorkloadEngine, WorkloadSpec


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(limit)


def plain_pickle(world) -> None:
    """Fails naming the first closure (``<locals>``) the world reaches."""
    pickle.loads(pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL))


def routed_fabric(seed: int = 7, establish: bool = True):
    """cp-a -> g0 -> g1 -> cp-b: two forwarding guests on one host."""
    return build_fabric(TopologyConfig(
        guests=(GuestSpec(name="g0"), GuestSpec(name="g1")),
        counterparties=(CounterpartySpec("cp-a"), CounterpartySpec("cp-b")),
        links=(LinkSpec(a="cp-a", b="g0"), LinkSpec(a="g1", b="cp-b"),
               LinkSpec(a="g0", b="g1")),
        routes=(RouteSpec("path", ("cp-a", "g0", "g1", "cp-b")),),
        seed=seed, tracing=True,
    ), establish=establish)


def uploading(fabric) -> bool:
    """A chunked light-client update is on its way to the host."""
    return any(getattr(link.relayer.a.updates, "_lc_busy", False)
               for link in fabric.links)


def mid_route(fabric) -> bool:
    """A routed transfer has been forwarded by g0 and not yet settled."""
    forward = fabric.guests["g0"].contract.forward
    return forward.forwards_started > forward.forwards_settled


@pytest.mark.usefixtures("default_recursion_limit")
class TestEveryWorldIsPlainData:
    def test_a_deployment_under_a_workload_engine(self):
        deployment, engine = start_point(ThroughputPointConfig(
            seed=401, offered_pps=8.0, duration=120.0, drain_seconds=120.0,
            channels=2, batch_max_packets=8, block_tx_limit=8))
        for events in (1_000, 2_500, 4_000):
            while deployment.sim.dispatched_events() < events:
                deployment.sim.step()
            plain_pickle({"deployment": deployment, "engine": engine})

    def test_a_fabric_before_and_after_establishment_and_mid_route(self):
        fabric = routed_fabric(establish=False)
        plain_pickle(fabric)
        fabric.establish_all()
        plain_pickle(fabric)
        fabric.counterparties["cp-a"].bank.mint("alice", "uatom", 1_000)
        fabric.send_along("path", "alice", "bob", "uatom", 7)
        for _ in range(3):
            fabric.run_for(20.0)
            plain_pickle(fabric)

    def test_the_evaluation_run(self):
        run = EvaluationRun(EvaluationConfig(seed=5, duration=1_800.0))
        run.start()
        for _ in range(3):
            run.deployment.run_for(500.0)
            plain_pickle(run)

    def test_a_chaos_storm(self):
        config = smoke_config(505)
        deployment, channels = build_linked_deployment(
            config.seed,
            GuestConfig(delta_seconds=config.delta_seconds,
                        epoch_length_host_blocks=config.epoch_length_host_blocks,
                        min_stake_lamports=1),
            (config.batch_max_packets, config.batch_flush_seconds),
            config.channels, validators=config.validators, with_fisherman=True)
        injector = ChaosInjector(deployment, storm_plan(config)).arm()
        engine = WorkloadEngine(deployment, channels, WorkloadSpec(
            mode="open-constant", offered_pps=config.offered_pps,
            duration=config.duration, drain_seconds=config.drain_seconds))
        engine.start()
        armed = deployment.sim.now
        # Inside the host blackout, the quorum equivocation and the
        # relayer crash.
        for offset in (50.0, 125.0, 180.0):
            deployment.sim.run_until(armed + offset)
            plain_pickle({"deployment": deployment, "engine": engine,
                          "injector": injector})


def test_a_fabric_mid_routed_transfer_restores_and_runs_on_identically():
    """Snapshot with forwarding installed, a transfer between its hops
    and a chunked update uploading; the restored fabric runs on root
    for root, event for event and counter for counter."""
    fabric = routed_fabric()
    fabric.counterparties["cp-a"].bank.mint("alice", "uatom", 1_000)
    for index in range(3):
        fabric.send_along("path", "alice", f"bob-{index}", "uatom", 7)
    while not (mid_route(fabric) and uploading(fabric)):
        assert fabric.sim.step() and fabric.sim.now < 600.0
    assert all(guest.contract.forward is not None
               for guest in fabric.guests.values())
    checkpoint = snapshot_world(fabric)

    def run_on(world):
        world.run_for(600.0)
        return (
            {name: bytes(guest.contract.store.root_hash).hex()
             for name, guest in world.guests.items()},
            {name: bytes(cp.ibc.store.root_hash).hex()
             for name, cp in world.counterparties.items()},
            world.sim.dispatched_events(),
            world.sim.trace.report().counters,
        )

    straight = run_on(fabric)
    restored, _ = restore_world(checkpoint)
    assert run_on(restored) == straight
    assert restored.guests["g0"].contract.forward.forwards_settled == 3
