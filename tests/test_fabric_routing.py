"""Full-stack cross-guest routing: sibling links, 2-hop routes, acks.

These run the real event-loop deployment — host chain, validator
cohorts, crankers, the classic guest↔counterparty relayers AND the
host-verified sibling clients — not the protocol-level harness.
"""

import pytest

from repro.fabric import TopologyConfig, build_fabric
from repro.ibc.identifiers import ChannelId
from repro.relayer import CounterpartyEnd, GuestEnd


@pytest.fixture(scope="module")
def line():
    """cp-a — g0 — g1 — cp-b, all links established, route resolved."""
    dep = build_fabric(TopologyConfig.chain_of(
        ("cp-a", "g0", "g1", "cp-b"), seed=13))
    dep.counterparties["cp-a"].bank.mint("alice", "uatom", 1_000_000)
    return dep


class TestLinkEstablishment:
    def test_every_link_has_channels_on_both_ends(self, line):
        for link in line.links:
            assert set(link.channels) == link.spec.ends

    def test_sibling_link_used_for_guest_guest(self, line):
        far_ends = {link.spec.ends: type(link.relayer.b)
                    for link in line.links}
        assert far_ends[frozenset(("g0", "g1"))] is GuestEnd
        assert far_ends[frozenset(("cp-a", "g0"))] is CounterpartyEnd

    def test_route_table_resolved(self, line):
        hops = line.routes.route("path")
        assert [h.chain for h in hops] == ["cp-a", "g0", "g1"]
        assert line.routes.hop_count("path") == 3

    def test_sibling_clients_registered_both_ways(self, line):
        g0 = line.guests["g0"].contract
        g1 = line.guests["g1"].contract
        assert len(g0.sibling_clients) == 1
        assert len(g1.sibling_clients) == 1
        client = next(iter(g0.sibling_clients.values()))
        assert client.latest_height() > 0  # adopted during the handshake


class TestRoutedTransfer:
    def test_two_hop_route_end_to_end(self, line):
        checker = line.conservation_checker()
        cp_b = line.counterparties["cp-b"]
        line.send_along("path", "alice", "bob", "uatom", 777)
        deadline = line.sim.now + 900.0
        while line.sim.now < deadline:
            line.run_for(30.0)
            if any(addr == "bob"
                   for (addr, _) in cp_b.bank.balances()):
                break
        line.run_for(120.0)  # let trailing acks seal
        bob = {denom: amount
               for (addr, denom), amount in cp_b.bank.balances().items()
               if addr == "bob"}
        assert sum(bob.values()) == 777
        # Three hops away from origin: triple-prefixed voucher denom.
        (denom,) = bob
        assert denom.count("/") == 6
        assert denom.endswith("/uatom")
        assert checker.check().ok, checker.check().failures

    def test_hop_scoped_acks_settled_every_hop(self, line):
        g0 = line.guests["g0"].contract
        g1 = line.guests["g1"].contract
        assert g0.forward.forwards_started >= 1
        assert g0.forward.forwards_started == g0.forward.forwards_settled
        assert g1.forward.forwards_started == g1.forward.forwards_settled
        assert g0.forward.unwinds == 0
        assert g1.forward.unwinds == 0
        # No unwind records left in flight on either middleware.
        assert not g0.forward._forwards
        assert not g1.forward._forwards


class TestSiblingTransfer:
    def test_guest_to_guest_direct_transfer(self, line):
        """One hop over the sibling link, no forwarding involved:
        g0 mints a native guest asset and sends it to a g1 user."""
        g0 = line.guests["g0"].contract
        g1 = line.guests["g1"].contract
        sibling = line.link_between("g0", "g1")
        chan_g0 = ChannelId(sibling.channels["g0"])
        chan_g1 = sibling.channels["g1"]

        g0.bank.mint(str(line.user["g0"]), "ug0coin", 5_000)
        checker = line.conservation_checker()
        payload = g0.transfer.make_payload(
            chan_g0, "ug0coin", 1_234,
            sender=str(line.user["g0"]), receiver="carol")
        line.user_api["g0"].send_packet("transfer", str(chan_g0),
                                        payload, 0.0)
        voucher = f"transfer/{chan_g1}/ug0coin"
        deadline = line.sim.now + 600.0
        while (g1.bank.balance("carol", voucher) == 0
               and line.sim.now < deadline):
            line.run_for(30.0)
        assert g1.bank.balance("carol", voucher) == 1_234
        assert g0.bank.balance(
            g0.transfer.escrow_address(chan_g0), "ug0coin") == 1_234
        line.run_for(60.0)
        assert checker.check().ok

    def test_sibling_relayer_metrics_counted_work(self, line):
        sibling = line.link_between("g0", "g1")
        metrics = sibling.relayer.metrics
        assert metrics.packets_relayed_to_guest >= 1
        assert len(metrics.acks_returned) >= 1
