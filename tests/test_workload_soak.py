"""Soak test: a 10k-packet multi-channel run stays conserved and clean.

The long-haul companion to the throughput benchmark: drive ten thousand
ICS-20 transfers over several channels through a batching relayer, then
audit the wreckage — every packet delivered exactly once, token value
conserved between counterparty escrow and guest vouchers, guest block
heights strictly monotone, and no tracing span left open (a leaked span
means some relayer flow started and never finished).
"""

import pytest

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.relayer.relayer import RelayerConfig
from repro.validators.profiles import simple_profiles
from repro.workload import WorkloadEngine, WorkloadSpec

CHANNELS = 3
OFFERED_PPS = 40.0
DURATION = 250.0  # 40 pps * 250 s = 10_000 packets
AMOUNT = 3


@pytest.fixture(scope="module")
def soak():
    dep = Deployment(DeploymentConfig(
        seed=29,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        relayer=RelayerConfig(batch_max_packets=32, batch_flush_seconds=2.0),
        profiles=simple_profiles(4),
        tracing=True,
    ))
    # The first call opens the connection too; each further one adds a
    # channel over it.
    channels = [dep.establish_link() for _ in range(CHANNELS)]

    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant",
        offered_pps=OFFERED_PPS,
        duration=DURATION,
        amount=AMOUNT,
        drain_seconds=1_800.0,
    ))
    report = engine.run()
    return dep, channels, engine, report


def test_every_packet_delivered_exactly_once(soak):
    dep, channels, engine, report = soak
    assert report.sent >= 10_000
    assert report.send_failures == 0
    assert report.committed == report.sent
    assert report.delivered == report.sent
    assert engine.outstanding() == 0
    # The run genuinely exercised every channel.
    assert len(channels) == CHANNELS
    received = dep.trace_report()
    counters = received.counters
    counters = counters() if callable(counters) else counters
    assert counters["workload.packets.delivered"] == report.sent


def test_escrow_matches_voucher_supply(soak):
    """Value conservation: every token locked in a counterparty escrow
    circulates as exactly one guest voucher, channel by channel."""
    dep, channels, engine, report = soak
    spec = engine.spec
    total_escrowed = 0
    for guest_chan, cp_chan in channels:
        escrow = dep.counterparty.transfer.escrow_address(cp_chan)
        escrowed = dep.counterparty.bank.balance(escrow, spec.denom)
        voucher = dep.contract.transfer.voucher_denom(guest_chan, spec.denom)
        assert dep.contract.bank.total_supply(voucher) == escrowed
        total_escrowed += escrowed
    assert total_escrowed == report.sent * AMOUNT
    # Nothing minted out of thin air: counterparty supply is unchanged
    # by relaying (escrow just moved it), guest supply equals escrow.
    minted = sum(
        amount for (_, denom), amount
        in dep.counterparty.bank._balances.items() if denom == spec.denom
    )
    assert dep.counterparty.bank.total_supply(spec.denom) == minted


def test_guest_heights_strictly_monotone(soak):
    dep, _, _, _ = soak
    heights = [block.height for block in dep.contract.blocks]
    assert len(heights) >= 2
    assert all(b > a for a, b in zip(heights, heights[1:]))
    assert dep.contract.head.finalised


def test_no_leaked_spans(soak):
    """Every begin()-span ended: no relayer flow, LC update, delivery
    bundle or host submission is left dangling after the drain."""
    dep, _, _, _ = soak
    leaked = dep.trace_report().open_spans()
    assert leaked == [], [s.name for s in leaked]
