"""One relayer, two link kinds, same outcome.

A guest↔counterparty link and a guest↔guest link are the same
:class:`~repro.relayer.relayer.Relayer` over different ends, so the same
transfer script must end the same way over either:

* a seeded differential — sends both ways, a relayer crash the instant
  it hands an ack return to the chain (which lands while it is down),
  and a send that expires while the relayer is down — compares
  per-account balance deltas, exactly-once receipt, cleared
  commitments, timeouts and sealed acks, and reads from the chains
  that no ack an origin accepted is left unconfirmed;
* the guest↔guest link inherits the submission pipeline's blackout
  deferral: host RPC blackouts landing on deliveries, ack returns,
  confirm-seals and preludes delay packets but lose nothing.
"""

from typing import Optional

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.counterparty.chain import CounterpartyConfig
from repro.errors import HostUnavailableError
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, TopologyConfig, build_fabric,
)
from repro.ibc.identifiers import ChannelId, PortId

PORT = PortId("transfer")


class LoneLink:
    """``g0`` linked to ``g1``, where ``g1`` is a second guest on the
    same host or an IBC-native counterparty."""

    def __init__(self, kind: str, seed: int,
                 cp_config: Optional[CounterpartyConfig] = None) -> None:
        self.kind = kind
        if kind == "guest-guest":
            guests, cps = (GuestSpec("g0"), GuestSpec("g1")), ()
        else:
            guests, cps = (GuestSpec("g0"),), (CounterpartySpec("g1", cp_config),)
        self.dep = build_fabric(TopologyConfig(
            guests=guests, counterparties=cps,
            links=(LinkSpec("g0", "g1"),), seed=seed, tracing=True))
        link = self.dep.links[0]
        self.channels = {name: ChannelId(chan)
                         for name, chan in link.channels.items()}
        self.relayer = link.relayer
        self.t0 = self.dep.sim.now
        for name in ("g0", "g1"):
            self.bank(name).mint(self.sender(name), f"stone-{name}", 1_000)

    def peer(self, name: str) -> str:
        return "g1" if name == "g0" else "g0"

    def chain(self, name: str):
        """The chain object carrying ``ibc``/``bank``/``transfer``."""
        if name in self.dep.counterparties:
            return self.dep.counterparties[name]
        return self.dep.guests[name].contract

    def bank(self, name: str):
        return self.chain(name).bank

    def sender(self, name: str) -> str:
        if name in self.dep.counterparties:
            return f"{name}-user"
        return str(self.dep.user[name])

    def send(self, src: str, amount: int, timeout_timestamp: float = 0.0) -> None:
        chain, channel = self.chain(src), self.channels[src]
        args = (channel, f"stone-{src}", amount,
                self.sender(src), f"{self.peer(src)}-hodler")
        if src in self.dep.counterparties:
            chain.submit(lambda: chain.ibc.send_packet(
                PORT, channel, chain.transfer.make_payload(*args),
                timeout_timestamp))
            return
        try:
            self.dep.user_api[src].send_packet(
                str(PORT), str(channel), chain.transfer.make_payload(*args),
                timeout_timestamp)
        except HostUnavailableError:
            # make_payload escrowed already; put it back and try later.
            chain.bank.transfer(chain.transfer.escrow_address(channel),
                                self.sender(src), f"stone-{src}", amount)
            self.dep.sim.schedule(1.0, self.send, src, amount, timeout_timestamp)

    def at(self, offset: float, action, *args) -> None:
        self.dep.sim.schedule(self.t0 + offset - self.dep.sim.now, action, *args)

    # -- what the run left behind -------------------------------------

    def deltas(self) -> dict:
        """Per-role balances after the run (every role starts at zero
        except the two senders, which start at 1000)."""
        out = {}
        for name in ("g0", "g1"):
            peer = self.peer(name)
            bank, transfer = self.bank(name), self.chain(name).transfer
            voucher = f"transfer/{self.channels[name]}/stone-{peer}"
            out[f"{name}.sender"] = bank.balance(self.sender(name), f"stone-{name}")
            out[f"{name}.escrow"] = bank.balance(
                transfer.escrow_address(self.channels[name]), f"stone-{name}")
            out[f"{name}.hodler"] = bank.balance(f"{name}-hodler", voucher)
            out[f"{name}.voucher_supply"] = bank.total_supply(voucher)
        return out

    def counters(self, name: str):
        return self.chain(name).ibc.counters

    def acks_sealed(self) -> int:
        return self.dep.sim.trace.report().counters.get("guest.acks.sealed", 0)

    def received_by_guests(self) -> int:
        return sum(self.counters(name).packets_received
                   for name in self.dep.guests)

    def assert_settled(self) -> None:
        """Every commitment cleared, every ack a guest returned sealed."""
        for name in ("g0", "g1"):
            sent = self.counters(name)
            assert sent.packets_sent == (
                sent.packets_acknowledged + sent.packets_timed_out), name
            peer = self.counters(self.peer(name))
            assert peer.packets_received == sent.packets_acknowledged, name
        assert self.acks_sealed() == self.received_by_guests()


# ----------------------------------------------------------------------
# Differential: the same script over both link kinds
# ----------------------------------------------------------------------

def run_script(kind: str, seed: int) -> LoneLink:
    world = LoneLink(kind, seed)
    dep, relayer = world.dep, world.relayer
    world.at(5.0, world.send, "g0", 100)
    world.at(10.0, world.send, "g1", 70)
    send = relayer._send

    def crash_behind(dst, op):
        """The relayer dies the instant it hands g1 the return of the
        ack of g1's send: that return lands while it is down."""
        send(dst, op)
        if op.kind == "ack" and dst is relayer.b and not relayer.metrics.crashes:
            dep.sim.schedule(0.0, crash)

    def crash():
        ChaosInjector(dep, FaultPlan(label="ack-in-flight").add(
            "relayer_crash", at=0.0, duration=60.0)).arm()
        world.send("g0", 30)          # committed while down
        at = dep.sim.now
        dep.sim.schedule(5.0, world.send, "g1", 11)
        # Expires while the relayer is down, toward either end kind:
        # cancelled and refunded after the restart.
        dep.sim.schedule(5.0, world.send, "g0", 13, at + 25.0)
        dep.sim.schedule(75.0, world.send, "g0", 5)

    relayer._send = crash_behind
    ibc = world.chain("g1").ibc
    acknowledge = ibc.acknowledge_packet

    def watched_acknowledge(*args, **kwargs):
        done = acknowledge(*args, **kwargs)
        world.acks_landed_while_down += relayer.paused
        return done

    world.acks_landed_while_down = 0
    ibc.acknowledge_packet = watched_acknowledge
    dep.run_for(900.0)
    return world


@pytest.mark.parametrize("seed", range(500, 550))
def test_same_script_same_outcome_over_both_link_kinds(seed):
    classic = run_script("guest-cp", seed)
    sibling = run_script("guest-guest", seed)
    expected = {
        "g0.sender": 865, "g0.escrow": 135, "g0.hodler": 81,
        "g0.voucher_supply": 81,
        "g1.sender": 919, "g1.escrow": 81, "g1.hodler": 135,
        "g1.voucher_supply": 135,
    }
    assert classic.deltas() == expected
    assert sibling.deltas() == expected
    for world in (classic, sibling):
        # Exactly once: three transfers landed on g1, two on g0.
        assert world.counters("g1").packets_received == 3
        assert world.counters("g0").packets_received == 2
        assert world.relayer.metrics.crashes == 1
        assert world.acks_landed_while_down == 1   # the precondition
        world.assert_settled()
        assert world.counters("g0").packets_timed_out == 1
        assert world.relayer.metrics.timeouts_cancelled == 1
        # No ack an origin accepted is left unconfirmed on its receiver,
        # read from the chains: an accepted ack cleared its commitment.
        for receiver, origin in ((world.relayer.a, world.relayer.b),
                                 (world.relayer.b, world.relayer.a)):
            for write in receiver.ibc.unconfirmed_acks():
                assert origin.has_commitment(write.packet), (receiver.chain_id, write)


def test_a_restart_past_the_counterparty_retention_times_out_what_expired():
    """The counterparty keeps only its last few blocks
    (``retain_blocks``), and the relayer is down for longer than they
    span while a guest send to it expires.  The restart reads the clocks
    of held blocks only: the oldest one held is the first known past the
    deadline, and the send is timed out from there."""
    world = LoneLink("guest-cp", seed=3, cp_config=CounterpartyConfig(retain_blocks=5))
    chain = world.chain("g1")
    ChaosInjector(world.dep, FaultPlan(label="long-outage").add(
        "relayer_crash", at=5.0, duration=200.0)).arm()
    world.at(10.0, world.send, "g0", 13, world.t0 + 40.0)
    oldest_held = []
    world.at(204.0, lambda: oldest_held.append(
        chain.blocks[min(chain.blocks)].header.time))
    world.dep.run_for(900.0)

    assert world.relayer.metrics.crashes == 1
    # The precondition: as the relayer restarts, every block the chain
    # still holds is past the deadline.
    assert oldest_held[0] > world.t0 + 40.0
    assert world.counters("g0").packets_timed_out == 1
    assert world.relayer.metrics.timeouts_cancelled == 1
    assert world.bank("g0").balance(world.sender("g0"), "stone-g0") == 1_000
    world.assert_settled()


# ----------------------------------------------------------------------
# Blackouts on a guest↔guest link
# ----------------------------------------------------------------------

@pytest.mark.parametrize("first_window", [5.0, 7.5, 11.0, 13.3])
def test_sibling_link_survives_host_blackouts(first_window):
    world = LoneLink("guest-guest", seed=11)
    checker = world.dep.conservation_checker()
    plan = FaultPlan(label="blackouts")
    for index in range(12):
        plan.add("host_blackout", at=first_window + 20.0 * index, duration=3.0)
    ChaosInjector(world.dep, plan).arm()
    for index in range(240):
        world.at(1.0 + index, world.send, ("g0", "g1")[index % 2], 2)
    world.dep.run_for(240.0 + 900.0)

    assert checker.check().ok
    for name in ("g0", "g1"):
        assert world.counters(name).packets_sent == 120
        assert world.counters(name).packets_received == 120   # exactly once
        assert world.counters(name).packets_acknowledged == 120
        assert world.bank(name).balance(
            f"{name}-hodler",
            f"transfer/{world.channels[name]}/stone-{world.peer(name)}") == 240
    world.assert_settled()
    assert world.acks_sealed() == 240
    counters = world.dep.sim.trace.report().counters
    assert counters.get("chaos.host.rpc_refused", 0) > 0   # the faults bit
    assert world.relayer.settled()
