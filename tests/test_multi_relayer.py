"""Multiple permissionless relayers racing (§III-C).

"Relayers and Fishermen are both permissionless and can be run by
anyone" — and because everything is proof-checked on-chain, competing
relayers can only duplicate work, never corrupt state.  These tests run
two independent relayers over the same link and check exactly-once
delivery semantics survive the race.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest.api import GuestApi
from repro.guest.config import GuestConfig
from repro.host.accounts import Address
from repro.relayer import CounterpartyEnd, GuestEnd, Relayer, RelayerConfig
from repro.units import sol_to_lamports
from repro.validators.profiles import simple_profiles


@pytest.fixture
def racing():
    dep = Deployment(DeploymentConfig(
        seed=61,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))
    # A second, completely independent relayer with its own payer.
    rival_payer = Address.derive("rival-relayer-payer")
    dep.host.airdrop(rival_payer, sol_to_lamports(10_000.0))
    rival_api = GuestApi(dep.host, dep.contract, rival_payer)
    rival = Relayer(
        dep.sim, dep.host,
        GuestEnd(dep.contract, rival_api, dep.contract.counterparty_client_id),
        CounterpartyEnd(dep.counterparty, dep.guest_client_id_on_cp),
        RelayerConfig(),
    )
    channels = dep.establish_link()
    # The rival joins after the handshake; wire its channel knowledge.
    for end, known in ((rival.a, dep.relayer.a), (rival.b, dep.relayer.b)):
        end.connection_id = known.connection_id
        end.channels |= known.channels
    return dep, rival, channels


class TestRelayerRace:
    def test_guest_to_cp_exactly_once(self, racing):
        dep, rival, (guest_chan, cp_chan) = racing
        dep.contract.bank.mint("alice", "GUEST", 500)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 100, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(240.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        # Delivered exactly once despite two relayers pushing it.
        assert dep.counterparty.bank.balance("bob", voucher) == 100
        assert dep.counterparty.ibc.counters.packets_received == 1
        # The race produced at least one rejected duplicate somewhere.
        total_attempts = (dep.relayer.metrics.packets_relayed_to_counterparty
                          + rival.metrics.packets_relayed_to_counterparty)
        assert total_attempts >= 1

    def test_cp_to_guest_exactly_once(self, racing):
        dep, rival, (guest_chan, cp_chan) = racing
        dep.counterparty.bank.mint("carol", "PICA", 500)

        def send():
            data = dep.counterparty.transfer.make_payload(cp_chan, "PICA", 70, "carol", "dave")
            dep.counterparty.ibc.send_packet(dep.counterparty.transfer_port, cp_chan, data, 0.0)

        dep.counterparty.submit(send)
        dep.run_for(400.0)

        voucher = dep.contract.transfer.voucher_denom(guest_chan, "PICA")
        assert dep.contract.bank.balance("dave", voucher) == 70
        assert dep.contract.ibc.counters.packets_received == 1
        # Both relayers attempted the delivery; the double-delivery guard
        # (the sealed/written receipt) rejected the loser's bundle.
        attempts = len(dep.relayer.metrics.deliveries) + len(rival.metrics.deliveries)
        assert attempts >= 2
        failures = [d for d in dep.relayer.metrics.deliveries + rival.metrics.deliveries
                    if not d.success]
        assert any("already received" in (d.error or "") for d in failures)

    def test_funds_conserved_under_race(self, racing):
        dep, rival, (guest_chan, cp_chan) = racing
        dep.contract.bank.mint("alice", "GUEST", 300)
        for amount in (50, 60, 70):
            payload = dep.contract.transfer.make_payload(
                guest_chan, "GUEST", amount, "alice", "bob",
            )
            dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(400.0)

        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        escrow = dep.contract.transfer.escrow_address(guest_chan)
        assert dep.counterparty.bank.balance("bob", voucher) == 180
        assert dep.contract.bank.balance("alice", "GUEST") == 120
        assert dep.contract.bank.balance(escrow, "GUEST") == 180
        assert dep.counterparty.bank.total_supply(voucher) == 180
