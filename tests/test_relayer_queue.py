"""Unit tests for the relayer's light-client work queue and flows.

The queue serialises chunked updates (one at a time), releases work
items once a verified counterparty height covers them, and retries when
the needed block has not been produced yet.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.relayer.updates import LC_UPDATE_PLANS
from repro.validators.profiles import simple_profiles


@pytest.fixture
def dep():
    return Deployment(DeploymentConfig(
        seed=81,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))


class TestLcWorkQueue:
    def test_immediate_dispatch_when_height_known(self, dep):
        dep.run_for(30.0)
        outcomes = []
        dep.relayer_api.submit_lc_update(
            dep.counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=outcomes.append,
        )
        dep.run_for(120.0)
        assert outcomes[-1].success
        known = dep.contract.counterparty_client.latest_height()

        fired = []
        dep.relayer.a.updates.cover(known, fired.append)
        # Already covered: the action runs synchronously, no new update.
        assert fired == [known]

    def test_queued_work_released_after_update(self, dep):
        dep.run_for(30.0)
        target = dep.counterparty.height + 1
        fired = []
        dep.relayer.a.updates.cover(target, fired.append)
        assert fired == []          # queued, not yet satisfiable
        dep.run_for(240.0)          # block produced + chunked update runs
        assert fired and fired[0] >= target
        assert dep.relayer.metrics.lc_updates

    def test_one_update_serves_many_items(self, dep):
        dep.run_for(30.0)
        target = dep.counterparty.height + 1
        fired = []
        for _ in range(5):
            dep.relayer.a.updates.cover(target, fired.append)
        dep.run_for(240.0)
        assert len(fired) == 5
        # All five were satisfied by a small number of chunked updates
        # (batching is the point of the queue).
        assert len(dep.relayer.metrics.lc_updates) <= 2

    def test_updates_never_run_concurrently(self, dep):
        dep.run_for(30.0)
        strategy = dep.relayer.a.updates
        for offset in range(3):
            strategy.cover(dep.counterparty.height + offset, lambda h: None)
        assert strategy._lc_busy or not strategy._lc_queue
        dep.run_for(300.0)
        updates = dep.relayer.metrics.lc_updates
        # Sequential: each update's first tx comes after the previous
        # update's last tx.
        for prev, cur in zip(updates, updates[1:]):
            assert cur.first_tx_time >= prev.last_tx_time

    def test_future_height_waits_for_block_production(self, dep):
        dep.run_for(30.0)
        far_future = dep.counterparty.height + 20  # ~2 minutes away
        fired = []
        dep.relayer.a.updates.cover(far_future, fired.append)
        dep.run_for(60.0)
        assert fired == []  # the block does not exist yet
        dep.run_for(240.0)
        assert fired and fired[0] >= far_future


class TestRelayerAlg2Conditions:
    def test_empty_blocks_not_relayed(self, dep):
        """Alg. 2 line 5: blocks without packets or epoch changes stay
        local (no guest-client update on the counterparty)."""
        updates_before = dep.guest_client.latest_height()
        dep.run_for(400.0)  # several Δ empty blocks
        assert dep.contract.head.height >= 2
        assert dep.guest_client.latest_height() == updates_before

    def test_blocks_with_packets_are_relayed(self, dep):
        guest_chan, cp_chan = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 10)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 5, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        before = dep.guest_client.latest_height()
        dep.run_for(120.0)
        assert dep.guest_client.latest_height() > before
