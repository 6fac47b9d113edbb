"""N-guest conservation property: a seeded 2 000-packet soak across a
two-guest fabric with a sibling link, short-timeout transfers, and a
chaos plan (sibling-relayer crash, cranker crash, host slot stall).

The property: whatever mix of deliveries, expiries, and crash-window
losses the seed produces, every base denom's non-escrow supply is
conserved across all four ledgers, and every escrowed token circulates
as exactly one voucher on the far side of its channel.
"""

import random

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.fabric import (
    CounterpartySpec,
    GuestSpec,
    LinkSpec,
    TopologyConfig,
    build_fabric,
)
from repro.guest.config import GuestConfig
from repro.ibc.identifiers import ChannelId, PortId

SEED = 2024
TOTAL_PACKETS = 2_000
SEND_WINDOW = 600.0       # sends spread over this many simulated seconds
SHORT_TIMEOUT = 180.0     # sibling sends that may expire in the crash
MAX_DRAIN = 14_400.0


def _topology() -> TopologyConfig:
    heartbeat = GuestConfig(delta_seconds=240.0)
    return TopologyConfig(
        guests=(GuestSpec("g0", config=heartbeat),
                GuestSpec("g1", config=heartbeat)),
        counterparties=(CounterpartySpec("hub"),),
        links=(LinkSpec("hub", "g0"), LinkSpec("hub", "g1"),
               LinkSpec("g0", "g1")),
        seed=SEED,
    )


@pytest.fixture(scope="module")
def soak():
    dep = build_fabric(_topology())
    hub = dep.counterparties["hub"]
    hub.bank.mint("alice", "uatom", 10_000_000)
    for name in ("g0", "g1"):
        dep.guests[name].contract.bank.mint(
            str(dep.user[name]), f"stone{name[-1]}", 1_000_000)
    checker = dep.conservation_checker()

    sibling_link = dep.link_between("g0", "g1")
    dep.relayer = sibling_link.relayer  # chaos targets the sibling hop
    plan = (FaultPlan(label="fabric-soak")
            .add("relayer_crash", at=200.0, duration=400.0)
            .add("cranker_crash", at=300.0, duration=200.0)
            .add("host_slot_stall", at=450.0, duration=60.0))
    ChaosInjector(dep, plan).arm()

    rng = random.Random(SEED)
    sent = {"cp_to_guest": {"g0": 0, "g1": 0},
            "guest_to_cp": {"g0": 0, "g1": 0},
            "sibling": {"g0": 0, "g1": 0},
            "count": 0}

    def send_cp_to_guest(guest: str, amount: int) -> None:
        link = dep.link_between(guest, "hub")
        chan = ChannelId(link.channels["hub"])
        user = str(dep.user[guest])

        def submit(chan=chan, user=user, amount=amount):
            payload = hub.transfer.make_payload(
                chan, "uatom", amount, sender="alice", receiver=user)
            return hub.ibc.send_packet(PortId("transfer"), chan,
                                       payload, 0.0)
        hub.submit(submit)
        sent["cp_to_guest"][guest] += amount

    def send_guest_to_cp(guest: str, amount: int) -> None:
        link = dep.link_between(guest, "hub")
        chan = ChannelId(link.channels[guest])
        contract = dep.guests[guest].contract
        payload = contract.transfer.make_payload(
            chan, f"stone{guest[-1]}", amount,
            sender=str(dep.user[guest]), receiver="collector")
        dep.user_api[guest].send_packet("transfer", str(chan), payload, 0.0)
        sent["guest_to_cp"][guest] += amount

    def send_sibling(src: str, amount: int, short: bool) -> None:
        dst = "g1" if src == "g0" else "g0"
        chan = ChannelId(sibling_link.channels[src])
        contract = dep.guests[src].contract
        payload = contract.transfer.make_payload(
            chan, f"stone{src[-1]}", amount,
            sender=str(dep.user[src]), receiver=f"{dst}-hodler")
        timeout = dep.sim.now + SHORT_TIMEOUT if short else 0.0
        dep.user_api[src].send_packet("transfer", str(chan),
                                      payload, timeout)
        sent["sibling"][src] += amount

    def one_send() -> None:
        sent["count"] += 1
        amount = rng.randint(1, 5)
        fate = rng.random()
        guest = rng.choice(("g0", "g1"))
        if fate < 0.50:
            send_cp_to_guest(guest, amount)
        elif fate < 0.75:
            send_guest_to_cp(guest, amount)
        else:
            send_sibling(guest, amount, short=rng.random() < 0.5)

    for _ in range(TOTAL_PACKETS):
        dep.sim.schedule(rng.uniform(0.0, SEND_WINDOW), one_send)

    # Drain until the uatom flood fully lands and the sibling link's relayer
    # has no outstanding sends left (delivered, or cancelled on-chain).
    relayer = sibling_link.relayer
    deadline = dep.sim.now + MAX_DRAIN
    while dep.sim.now < deadline:
        dep.run_for(300.0)
        vouchers_ok = all(
            _uatom_vouchers(dep, name) == sent["cp_to_guest"][name]
            for name in ("g0", "g1"))
        outstanding = sum(end.sends(write.packet)
                          for end in (relayer.a, relayer.b)
                          for write in end.ibc.standing.values())
        if vouchers_ok and outstanding == 0 and sent["count"] == TOTAL_PACKETS:
            break
    dep.run_for(300.0)  # let trailing acks/confirms seal
    return dep, checker, sent, relayer


def _uatom_vouchers(dep, guest: str) -> int:
    link = dep.link_between(guest, "hub")
    contract = dep.guests[guest].contract
    return contract.bank.total_supply(
        f"transfer/{link.channels[guest]}/uatom")


class TestSoakConservation:
    def test_all_packets_sent(self, soak):
        dep, checker, sent, relayer = soak
        assert sent["count"] == TOTAL_PACKETS

    def test_chaos_actually_bit(self, soak):
        """The plan fired, and at least one short-timeout sibling send
        expired during the outage and was cancelled on-chain."""
        dep, checker, sent, relayer = soak
        assert relayer.metrics.crashes == 1
        assert relayer.metrics.timeouts_cancelled >= 1
        assert relayer.metrics.packets_relayed_to_guest >= 1

    def test_conservation_across_all_ledgers(self, soak):
        dep, checker, sent, relayer = soak
        report = checker.check()
        assert report.ok, report.failures

    def test_escrow_matches_voucher_supply_every_channel(self, soak):
        """Exactly-once in ledger form: each escrowed token circulates
        as exactly one voucher on the far end — a lost refund or a
        doubled mint would skew one side."""
        dep, checker, sent, relayer = soak
        hub = dep.counterparties["hub"]
        for name in ("g0", "g1"):
            link = dep.link_between(name, "hub")
            contract = dep.guests[name].contract
            # hub escrow (uatom) == guest voucher supply.
            escrow = hub.transfer.escrow_address(
                ChannelId(link.channels["hub"]))
            assert hub.bank.balance(escrow, "uatom") == \
                _uatom_vouchers(dep, name)
            # guest escrow (native stone) == hub voucher supply.
            stone = f"stone{name[-1]}"
            guest_escrow = contract.transfer.escrow_address(
                ChannelId(link.channels[name]))
            hub_voucher = f"transfer/{link.channels['hub']}/{stone}"
            assert contract.bank.balance(guest_escrow, stone) == \
                hub.bank.total_supply(hub_voucher)
        # The sibling channel, both directions.
        sibling = dep.link_between("g0", "g1")
        for src, dst in (("g0", "g1"), ("g1", "g0")):
            stone = f"stone{src[-1]}"
            src_c = dep.guests[src].contract
            dst_c = dep.guests[dst].contract
            escrow = src_c.transfer.escrow_address(
                ChannelId(sibling.channels[src]))
            voucher = f"transfer/{sibling.channels[dst]}/{stone}"
            assert src_c.bank.balance(escrow, stone) == \
                dst_c.bank.total_supply(voucher)

    def test_all_flood_transfers_delivered(self, soak):
        """timeout=0 sends can be delayed by the chaos but never lost:
        every cp→guest token arrived despite the crash windows."""
        dep, checker, sent, relayer = soak
        for name in ("g0", "g1"):
            assert _uatom_vouchers(dep, name) == sent["cp_to_guest"][name]
        hub = dep.counterparties["hub"]
        collected = sum(
            hub.bank.balance("collector",
                             f"transfer/{dep.link_between(n, 'hub').channels['hub']}/stone{n[-1]}")
            for n in ("g0", "g1"))
        assert collected == sum(sent["guest_to_cp"].values())

    def test_sibling_refunds_landed_exactly_once(self, soak):
        """Per guest: user balance + both escrows == the initial mint.
        A double refund would overshoot, a lost one undershoot."""
        dep, checker, sent, relayer = soak
        sibling = dep.link_between("g0", "g1")
        for name in ("g0", "g1"):
            stone = f"stone{name[-1]}"
            contract = dep.guests[name].contract
            cp_link = dep.link_between(name, "hub")
            held = contract.bank.balance(str(dep.user[name]), stone)
            cp_escrow = contract.bank.balance(
                contract.transfer.escrow_address(
                    ChannelId(cp_link.channels[name])), stone)
            sib_escrow = contract.bank.balance(
                contract.transfer.escrow_address(
                    ChannelId(sibling.channels[name])), stone)
            assert held + cp_escrow + sib_escrow == 1_000_000

    def test_guest_heights_strictly_monotone(self, soak):
        dep, checker, sent, relayer = soak
        for guest in dep.guests.values():
            heights = [b.height for b in guest.contract.blocks]
            assert all(b > a for a, b in zip(heights, heights[1:]))
            assert guest.contract.head.finalised
