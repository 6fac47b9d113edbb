"""A regression gate on a world's footprint that needs no clock.

§V-D keeps the Guest Contract's whole state in one 10 MiB host account
and prices it by its rent-exempt deposit; what the reproduction needs of
that account is its *size*.  While ``AccountsDb.allocate`` also wrote
the bytes — ``bytes(size)``, 10 MiB of zeros nothing read — every guest
cost 10 MiB of heap and 10 MiB of every checkpoint: 60 of a six-guest
fabric's 65 MB, 10.5 of a single link's 10.7 MB snapshot.  The counts
below are bytes, a function of the code alone (docs/PERFORMANCE.md, "An
account is its size").
"""

import tracemalloc

import pytest

from repro import Deployment, DeploymentConfig
from repro.checkpoint import snapshot_world
from repro.fabric import TopologyConfig, build_fabric
from repro.units import rent_exempt_deposit

#: Building a default ``Deployment`` allocates 0.21 MB at its peak
#: (10.69 with the blob).
DEPLOYMENT_PEAK_BYTES = 1_000_000
#: Six guests around one counterparty, built and every link
#: established: 1.7 MB (64.6 with six blobs).
FABRIC_PEAK_BYTES = 4_000_000
#: The container of an established default deployment: 187 693 bytes
#: (10 673 402 with the blob, 10 514 241 of them zero).
CHECKPOINT_BYTES = 512 * 1024
#: The longest run of zero bytes a checkpoint may carry; a pickled blob
#: of zeros is one run of its whole length.
ZERO_RUN_BYTES = 64 * 1024
#: The most any account of a world holds as ``data``.  The guest's
#: state is the ``GuestContract`` object; no program under ``src/``
#: stores bytes on an account.
ACCOUNT_DATA_BYTES = 4 * 1024


def traced_peak(build):
    """``build()`` and the peak of what it allocated, in bytes."""
    tracemalloc.start()
    try:
        world = build()
        return world, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def deployment():
    world, peak = traced_peak(lambda: Deployment(DeploymentConfig()))
    world.establish_link()
    return world, peak


@pytest.fixture(scope="module")
def fabric():
    return traced_peak(lambda: build_fabric(TopologyConfig.star(6)))


def test_building_a_world_allocates_no_account_blob(deployment, fabric):
    _, deployment_peak = deployment
    world, fabric_peak = fabric
    assert all(link.established_at is not None for link in world.links)
    assert deployment_peak <= DEPLOYMENT_PEAK_BYTES
    assert fabric_peak <= FABRIC_PEAK_BYTES


def test_a_checkpoint_carries_no_account_blob(deployment):
    world, _ = deployment
    container = snapshot_world(world).to_bytes()
    assert len(container) <= CHECKPOINT_BYTES
    assert bytes(ZERO_RUN_BYTES) not in container


def test_a_state_account_is_its_size_and_its_deposit(deployment, fabric):
    single, _ = deployment
    mesh, _ = fabric
    contracts = [(single.host, single.contract)] + [
        (mesh.host, guest.contract) for guest in mesh.guests.values()]
    assert len(contracts) == 7
    for host, contract in contracts:
        account = host.accounts.get(contract.state_account)
        assert account.size == contract.config.state_account_bytes > 0
        assert account.lamports == rent_exempt_deposit(account.size)
        assert account.owner == contract.program_id
    for host in (single.host, mesh.host):
        assert max(len(account.data) for account in host.accounts) \
            <= ACCOUNT_DATA_BYTES


# ----------------------------------------------------------------------
# Retention: a run keeps only the history something can still read
# ----------------------------------------------------------------------

#: How much more history a loaded link may hold after twice the time:
#: the blocks of what is in flight at either instant.
RETAINED_SLACK = 10
#: Checkpoint bytes after twice the time, as a share of those after once.
CHECKPOINT_GROWTH = 1.1


def retained(counterparties, guests) -> dict:
    """Per holder, how many heights of history a world keeps."""
    return {
        "counterparty records": sum(len(cp.blocks) for cp in counterparties),
        "guest state views": sum(len(c._state_views) for c in guests),
        "write-index heights": sum(len(chain.ibc.writes)
                                   for chain in (*counterparties, *guests)),
    }


def test_a_loaded_link_keeps_what_it_kept_at_half_the_time():
    """Constant traffic over a guest↔counterparty link, read at T and
    at 2T: each chain keeps only the heights its relayer can still
    reach (``Relayer._floor``), so the history held does not grow with
    the run.  (Keeping every height, the same run held 61 / 39 / 85 /
    759 at T and 111 / 72 / 167 / 1 473 at 2T.)"""
    from repro.experiments.throughput import build_linked_deployment
    from repro.guest.config import GuestConfig
    from repro.workload import WorkloadEngine, WorkloadSpec

    dep, channels = build_linked_deployment(
        29, GuestConfig(delta_seconds=120.0, min_stake_lamports=1), (1, 1.0), 1,
        tracing=False)
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant", offered_pps=2.0, duration=900.0,
        drain_seconds=0.0))
    engine.start()
    start, held = dep.sim.now, []
    for period in (1, 2):
        dep.sim.run_until(start + period * 300.0)
        held.append(retained([dep.counterparty], [dep.contract]))
    assert engine.delivered > 1_000
    # None at all: the host keeps no block list (a listener records one).
    assert not hasattr(dep.host, "blocks")
    at_t, at_2t = held
    for holder, count in at_2t.items():
        assert count <= at_t[holder] + RETAINED_SLACK, (holder, at_t, at_2t)


def test_a_loaded_links_checkpoint_does_not_grow_with_the_run():
    """A guest↔guest link batching a transfer each way every 2 s,
    checkpointed at T = 60 s and at 2T: 201 242 and 215 450 bytes
    (1.07; keeping every height, 274 004 and 413 977, 1.51).  What still grows
    is history no rule bounds yet: the guests' block lists (about
    0.2 KB a block), the relayer's per-bundle results and the sibling
    clients' adopted heights — at T = 120 s the same link reads about 1.2.
    A guest↔counterparty link is not this gate's: its guest's
    accountable light client keeps every adopted commit
    (``_finalisations``, about 6 KB an update)."""
    from repro.fabric import GuestSpec, LinkSpec
    from repro.guest.config import GuestConfig
    from repro.ibc.identifiers import ChannelId
    from repro.relayer.relayer import RelayerConfig

    config = GuestConfig(delta_seconds=90.0, min_stake_lamports=1)
    dep = build_fabric(TopologyConfig(
        guests=(GuestSpec("g0", config), GuestSpec("g1", config)),
        links=(LinkSpec("g0", "g1"),), seed=7,
        relayer=RelayerConfig(batch_max_packets=8, batch_flush_seconds=1.0)))
    channels = {name: ChannelId(chan) for name, chan in dep.links[0].channels.items()}
    contracts = {name: guest.contract for name, guest in dep.guests.items()}
    for name, contract in contracts.items():
        contract.bank.mint(str(dep.user[name]), f"stone-{name}", 1_000)
    start, sizes = dep.sim.now, []
    for period in (1, 2):
        while dep.sim.now < start + period * 60.0:
            for name, contract in contracts.items():
                dep.user_api[name].send_packet(
                    "transfer", str(channels[name]), contract.transfer.make_payload(
                        channels[name], f"stone-{name}", 1, str(dep.user[name]),
                        f"{name}-hodler"))
            dep.sim.run_until(dep.sim.now + 2.0)
        sizes.append(len(snapshot_world(dep).to_bytes()))
    assert all(contract.ibc.counters.packets_received > 40
               for contract in contracts.values())
    assert sizes[1] <= CHECKPOINT_GROWTH * sizes[0], sizes
