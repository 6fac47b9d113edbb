"""The relayer's delivery books reconcile to the chain.

Every delivery bundle that comes back to the relayer is booked once, by
one rule (``Relayer._book``, docs/OBSERVABILITY.md): its fee and
transactions split over its operations by kind, to the lamport, a
failed bundle like a landed one, and a relayed packet or a cancelled
timeout is an entry that landed.  So the ledger's ``delivery``,
``ack-return`` and ``timeout`` entries (the two-path relayer booked a
failed batch as ``batch-failed``: it is summed too) add up to exactly
what the host charged the relayer's payer for
the bundles that end in a packet exec (RECV_EXEC, ACK_EXEC,
TIMEOUT_EXEC, BATCH_EXEC), read from the host's own block receipts —
on a batched loaded link, and on a chaos world whose relayer crashes
with bundles in flight (their results come back to a dead incarnation,
and are booked all the same).
"""

from repro.chaos import ChaosInjector
from repro.experiments.chaos import ChaosSoakConfig, storm_plan
from repro.experiments.throughput import build_linked_deployment
from repro.guest.api import GuestApi
from repro.guest.config import GuestConfig
from repro.guest.instructions import Op
from repro.host.accounts import Address
from repro.relayer import CounterpartyEnd, GuestEnd, Relayer, RelayerConfig
from repro.units import sol_to_lamports
from repro.workload import WorkloadEngine, WorkloadSpec

from tests.test_lc_update_budget import BATCHING, GUEST
from tests.helpers import BlockRecorder

PACKET_EXECS = {Op.RECV_EXEC, Op.ACK_EXEC, Op.TIMEOUT_EXEC, Op.BATCH_EXEC}
DELIVERY_FLOWS = ("delivery", "ack-return", "timeout", "batch-failed")


class DeliveryTap:
    """Names every transaction of each delivery bundle the relayer's
    payer hands the host, and which came back to a dead incarnation."""

    def __init__(self, dep) -> None:
        self.host, self.relayer = dep.host, dep.relayer
        self.recorder = BlockRecorder(dep.host)
        self.payer = dep.relayer.a.api.payer
        self.tx_ids: set[int] = set()
        #: Delivery bundles whose result reached a crashed incarnation.
        self.orphaned = 0
        self._submit_bundle = dep.host.submit_bundle
        dep.host.submit_bundle = self.submit_bundle

    def submit_bundle(self, transactions, tip_lamports, on_result=None):
        last = transactions[-1].instructions[0].data
        if transactions[0].payer == self.payer and last[0] in PACKET_EXECS:
            self.tx_ids.update(tx.tx_id for tx in transactions)
            incarnation = self.relayer._incarnation

            def watched(receipts, on_result=on_result):
                self.orphaned += incarnation != self.relayer._incarnation
                on_result(receipts)
            return self._submit_bundle(transactions, tip_lamports,
                                       on_result=watched)
        return self._submit_bundle(transactions, tip_lamports,
                                   on_result=on_result)

    def charged(self) -> int:
        """Lamports the host's blocks record for those transactions."""
        return sum(receipt.fee_paid for block in self.recorder.blocks
                   for receipt in block.receipts if receipt.tx_id in self.tx_ids)


def booked(relayer) -> int:
    return sum(relayer.ledger.by_category.get(flow, 0) for flow in DELIVERY_FLOWS)


def test_a_batched_loaded_link_books_every_lamport():
    """A loaded batching link (32 / 2 s, 20 pps over three channels):
    bundles of receives whose fee does not divide by their size lose no
    remainder (the split before this rule dropped 1 944 lamports on the
    ledger's ``link_soak``)."""
    dep, channels = build_linked_deployment(29, GUEST, BATCHING, 3,
                                            tracing=False)
    tap = DeliveryTap(dep)
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant", offered_pps=20.0, duration=60.0,
        drain_seconds=300.0))
    engine.run()
    assert engine.delivered == engine.sent > 0
    assert tap.charged() > 0
    assert booked(dep.relayer) == tap.charged()


def test_a_crashed_relayers_landed_bundles_are_booked():
    """The chaos storm at seed 505: the relayer crashes with delivery
    bundles in flight, and they land after the crash.  A dead process
    continues nothing, but what it paid for is on the books."""
    config = ChaosSoakConfig(seed=505, duration=600.0)
    dep, channels = build_linked_deployment(
        config.seed,
        GuestConfig(delta_seconds=config.delta_seconds,
                    epoch_length_host_blocks=config.epoch_length_host_blocks,
                    min_stake_lamports=1),
        (config.batch_max_packets, config.batch_flush_seconds),
        config.channels, validators=config.validators, with_fisherman=True,
        tracing=False)
    tap = DeliveryTap(dep)
    ChaosInjector(dep, storm_plan(config)).arm()
    engine = WorkloadEngine(dep, channels, WorkloadSpec(
        mode="open-constant", offered_pps=config.offered_pps,
        duration=config.duration, drain_seconds=config.drain_seconds))
    engine.run()
    assert engine.delivered == engine.sent > 0
    # The precondition: bundles came back to a crashed incarnation.
    assert dep.relayer.metrics.crashes == 1 and tap.orphaned > 0
    assert booked(dep.relayer) == tap.charged()


def test_only_a_timeout_entry_that_landed_is_a_cancelled_timeout():
    """Two batching relayers race on one link.  Guest sends expire on
    the counterparty and both relayers carry their timeouts back in
    BATCH_EXEC bundles: the entries of whichever lands second are
    refused by the contract, each on its own.  A cancelled timeout is
    an entry that landed — counted once across both relayers, in
    ``RelayerMetrics.timeouts_cancelled`` and in the trace's
    ``relay.timeouts.cancelled`` alike."""
    from repro import Deployment, DeploymentConfig
    from repro.validators.profiles import simple_profiles

    batching = RelayerConfig(batch_max_packets=4, batch_flush_seconds=1.0)
    dep = Deployment(DeploymentConfig(
        seed=61, guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        relayer=batching, profiles=simple_profiles(4), tracing=True))
    rival_payer = Address.derive("rival-relayer-payer")
    dep.host.airdrop(rival_payer, sol_to_lamports(10_000.0))
    rival = Relayer(
        dep.sim, dep.host,
        GuestEnd(dep.contract, GuestApi(dep.host, dep.contract, rival_payer),
                 dep.contract.counterparty_client_id),
        CounterpartyEnd(dep.counterparty, dep.guest_client_id_on_cp),
        batching)
    guest_chan, _ = dep.establish_link()
    for end, known in ((rival.a, dep.relayer.a), (rival.b, dep.relayer.b)):
        end.connection_id = known.connection_id
        end.channels |= known.channels
    refused = []
    dep.host.subscribe("BatchProcessed", lambda event: refused.extend(
        kind for _, kind, _ in event.payload["failures"]))
    dep.contract.bank.mint("alice", "GUEST", 1_000)
    for _ in range(3):
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 10, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload,
                                 dep.sim.now + 3.0)
    dep.run_for(600.0)

    timed_out = dep.contract.ibc.counters.packets_timed_out
    assert timed_out == 3 and dep.counterparty.ibc.counters.packets_received == 0
    # The precondition: the loser's timeout entries were refused.
    assert Op.TIMEOUT_EXEC in refused
    cancelled = (dep.relayer.metrics.timeouts_cancelled
                 + rival.metrics.timeouts_cancelled)
    assert cancelled == timed_out
    assert dep.trace_report().counter("relay.timeouts.cancelled") == timed_out
