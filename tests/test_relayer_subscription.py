"""The block subscription against the poll it replaced: a differential.

``Relayer`` reads a counterparty's sends at each of its blocks
(``CounterpartyChain.on_block``).  It used to read them from a timer,
every 3 s; that relayer survives here alone, as a subclass, and is the
reference: same seeds, a few hundred counterparty sends, two relayer
crashes and restarts in the middle.  The subscription must deliver the
same packets exactly once, read every send at the height the poll read
it at and never later, and find the same sends still owed when it
restarts from the first crash (docs/PERFORMANCE.md, "No dead waits").
"""

import pytest

import repro.deployment
from repro.experiments.throughput import build_linked_deployment
from repro.guest.config import GuestConfig
from repro.relayer.endpoint import CounterpartyEnd, packet_key
from repro.relayer.relayer import Relayer
from repro.workload import WorkloadEngine, WorkloadSpec

POLL_SECONDS = 3.0
GUEST = GuestConfig(delta_seconds=120.0, min_stake_lamports=1)
#: Seconds into the workload: the first crash catches deliveries in
#: flight, and both restarts fall between two counterparty blocks.
CRASH, RESTART, CRASH_AGAIN, RESTART_AGAIN = 20.0, 41.0, 62.0, 80.5


class PollingRelayer(Relayer):
    """The relayer as it was: blocks go by unobserved and a
    self-rescheduling timer reads the send queue."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for end in (self.a, self.b):
            if isinstance(end, CounterpartyEnd):
                self.sim.schedule(POLL_SECONDS, self._poll, end)

    def _on_counterparty_block(self, src) -> None:
        """Not subscribed (nor caught up by ``restart``)."""

    def _poll(self, src) -> None:
        super()._on_counterparty_block(src)
        self.sim.schedule(POLL_SECONDS, self._poll, src)


class Run:
    def __init__(self, relayer_class, seed: int, monkeypatch) -> None:
        monkeypatch.setattr(repro.deployment, "Relayer", relayer_class)
        dep, channels = build_linked_deployment(seed, GUEST, (16, 1.0), 1)
        self.dep, relayer, end = dep, dep.relayer, dep.relayer.b
        assert type(relayer) is relayer_class
        #: Every read of the send queue that found something:
        #: (time, [(source channel, sequence, committed height)]).
        self.reads: list[tuple[float, list]] = []
        fresh_sends = end.fresh_sends

        def recording_fresh_sends():
            fresh = fresh_sends()
            if fresh:
                self.reads.append((dep.sim.now, [
                    (*packet_key(packet.source_channel, packet.sequence), height)
                    for packet, height in fresh]))
            return fresh

        end.fresh_sends = recording_fresh_sends
        engine = self.engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=4.0, duration=100.0, drain_seconds=400.0))
        engine.start()
        start = self.start = dep.sim.now
        #: label -> (cursor, the sends below it still owed to the guest).
        self.state = {}

        def at(offset, action, label):
            def fire():
                self.state[label] = (end._seen, [
                    packet_key(packet.source_channel, packet.sequence)
                    for packet, _ in end.read_sends()
                    if relayer._owed(end, relayer.a, packet)])
                action()
            dep.sim.schedule(offset, fire)

        at(CRASH, relayer.crash, "crash")
        at(RESTART, relayer.restart, "restart")
        at(CRASH_AGAIN, relayer.crash, "crash again")
        at(RESTART_AGAIN, relayer.restart, "restart again")
        dep.sim.run_until(engine.end_time)

    def first_read(self) -> dict:
        """send -> (committed height, when the relayer first read it)."""
        first = {}
        for at, sends in self.reads:
            for channel, sequence, height in sends:
                first.setdefault((channel, sequence), (height, at))
        return first


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subscription_reads_what_the_poll_read_and_never_later(seed, monkeypatch):
    polled = Run(PollingRelayer, seed, monkeypatch)
    subscribed = Run(Relayer, seed, monkeypatch)
    for run in (polled, subscribed):
        # The same packets, exactly once.
        assert run.engine.sent == run.engine.delivered == 400
        counters = run.dep.contract.ibc.counters
        assert counters.packets_received == 400
        assert run.dep.relayer.metrics.crashes == 2
        assert run.dep.relayer.b._seen == 400
    assert (subscribed.dep.contract.bank._balances
            == polled.dep.contract.bank._balances)

    theirs, ours = polled.first_read(), subscribed.first_read()
    assert set(ours) == set(theirs) and len(ours) == 400
    earlier = 0
    for send, (height, at) in ours.items():
        assert height == theirs[send][0]
        assert at <= theirs[send][1]
        earlier += at < theirs[send][1]
    # Up, both read a send at its block's instant (the 3 s grid falls on
    # the 6 s one); the sends of an outage the subscription reads as it
    # restarts, the poll on its next tick.
    blocks = subscribed.dep.counterparty.blocks
    paused = [send for send, (height, at) in ours.items()
              if at != blocks[height].header.time]
    assert 0 < earlier <= len(paused) < 150

    # Until the crash the two are one run: same cursor, and the restart
    # finds the same sends below it still owed (deliveries the crash
    # lost) and delivers them from the chain: no read of the send queue
    # returns one of them again.
    assert subscribed.state["crash"] == polled.state["crash"]
    seen, owed = subscribed.state["restart"]
    assert (seen, owed) == polled.state["restart"]
    assert seen == subscribed.state["crash"][0] and owed
    for run in (polled, subscribed):
        reread = [(channel, sequence) for at, sends in run.reads
                  if at >= run.start + RESTART
                  for channel, sequence, _ in sends]
        assert not set(owed) & set(reread)
