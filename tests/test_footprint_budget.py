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
