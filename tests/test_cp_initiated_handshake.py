"""The counterparty-initiated connection handshake.

A connection can be opened from either end; this exercises the paths the
guest-initiated flow never touches: the Guest Contract's CONN_OPEN_TRY
and CONN_OPEN_CONFIRM handlers (proof-checked against the chunked light
client), and the counterparty's ACK.
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.ibc.connection import ConnectionState
from repro.validators.profiles import simple_profiles


@pytest.fixture(scope="module")
def cp_initiated():
    dep = Deployment(DeploymentConfig(
        seed=111,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))
    outcome = {}
    dep.relayer.open_connection(
        lambda g, c: outcome.update(guest=g, cp=c),
        initiator=dep.relayer.b,
    )
    deadline = dep.sim.now + 3_600.0
    while "cp" not in outcome and dep.sim.now < deadline:
        dep.sim.step()
    assert "cp" in outcome, "counterparty-initiated handshake stalled"
    return dep, outcome["guest"], outcome["cp"]


class TestCounterpartyInitiatedConnection:
    def test_both_ends_open(self, cp_initiated):
        dep, guest_conn, cp_conn = cp_initiated
        assert dep.contract.ibc.connection(guest_conn).state == ConnectionState.OPEN
        assert dep.counterparty.ibc.connection(cp_conn).state == ConnectionState.OPEN

    def test_ends_reference_each_other(self, cp_initiated):
        dep, guest_conn, cp_conn = cp_initiated
        guest_end = dep.contract.ibc.connection(guest_conn)
        cp_end = dep.counterparty.ibc.connection(cp_conn)
        assert guest_end.counterparty_connection_id == cp_conn
        assert cp_end.counterparty_connection_id == guest_conn

    def test_channel_and_transfer_work_over_it(self, cp_initiated):
        dep, guest_conn, cp_conn = cp_initiated
        # The connection is open, so this adds a channel over it.
        guest_chan, cp_chan = dep.establish_link()

        dep.contract.bank.mint("alice", "GUEST", 50)
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 30, "alice", "bob",
        )
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(240.0)
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 30
