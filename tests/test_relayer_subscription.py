"""The block subscription against the poll it replaced: a differential.

``Relayer`` reads what a counterparty block owes at that block
(``CounterpartyChain.on_block``).  It used to read the sends from a
timer, every 3 s; that relayer survives here alone, as a subclass, and
is the reference: same seeds, a few hundred counterparty sends, two
relayer crashes and restarts in the middle.  The subscription must
deliver the same packets exactly once, read every send at the height the
poll read it at and never later, and find the same sends still owed,
read from the chains, when it restarts from the first crash
(docs/PERFORMANCE.md, "No dead waits").
"""

import pytest

import repro.deployment
from repro.experiments.throughput import build_linked_deployment
from repro.guest.config import GuestConfig
from repro.relayer.endpoint import CounterpartyEnd
from repro.relayer.relayer import Relayer
from repro.workload import WorkloadEngine, WorkloadSpec

POLL_SECONDS = 3.0
GUEST = GuestConfig(delta_seconds=120.0, min_stake_lamports=1)
#: Seconds into the workload: the first crash catches deliveries in
#: flight, and both restarts fall between two counterparty blocks.
CRASH, RESTART, CRASH_AGAIN, RESTART_AGAIN = 20.0, 41.0, 62.0, 80.5


class PollingRelayer(Relayer):
    """The relayer as it was: blocks go by unobserved and a
    self-rescheduling timer reads the blocks committed since its last
    tick; it knows no height past that tick, not even in ``restart``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for end in (self.a, self.b):
            if isinstance(end, CounterpartyEnd):
                polled = [end.chain.height]
                end.latest_final = lambda polled=polled: polled[0]
                self.sim.schedule(POLL_SECONDS, self._poll, end, polled)

    def _on_counterparty_block(self, src, height) -> None:
        """Not subscribed."""

    def _poll(self, src, polled) -> None:
        if not self.paused:
            for height in range(polled[0] + 1, src.chain.height + 1):
                polled[0] = height
                self._relay_block(src, height)
        self.sim.schedule(POLL_SECONDS, self._poll, src, polled)


def key(packet) -> tuple[str, int]:
    return (str(packet.source_channel), packet.sequence)


class Run:
    def __init__(self, relayer_class, seed: int, monkeypatch) -> None:
        monkeypatch.setattr(repro.deployment, "Relayer", relayer_class)
        dep, channels = build_linked_deployment(seed, GUEST, (16, 1.0), 1)
        self.dep, relayer, end = dep, dep.relayer, dep.relayer.b
        assert type(relayer) is relayer_class
        #: Every read of a block that found sends in it:
        #: (time, [(source channel, sequence, committed height)]).
        self.reads: list[tuple[float, list]] = []
        relay_block = relayer._relay_block

        def recording_relay_block(src, height):
            sends = [(*key(write.packet), height)
                     for write in end.ibc.writes.get(height, ())
                     if src is end and write.kind == "send"]
            if sends:
                self.reads.append((dep.sim.now, sends))
            return relay_block(src, height)

        relayer._relay_block = recording_relay_block
        engine = self.engine = WorkloadEngine(dep, channels, WorkloadSpec(
            offered_pps=4.0, duration=100.0, drain_seconds=400.0))
        engine.start()
        start = self.start = dep.sim.now
        #: label -> (counterparty height, the sends committed up to the
        #: first crash still owed to the guest), read from the chains.
        self.state = {}

        def at(offset, action, label):
            def fire():
                below = self.state.get("crash", (end.chain.height,))[0]
                self.state[label] = (end.chain.height, sorted(
                    key(write.packet) for write in end.ibc.standing.values()
                    if write.height <= below
                    and relayer._owes(end, relayer.a, "recv", write.packet)))
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
        assert len(run.first_read()) == 400      # every send was read
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

    # Until the crash the two are one run, and the restart finds the
    # same sends of the blocks read before it still owed (deliveries the
    # crash lost): each restart reads them from the chains, and no read
    # after it returns one of them again.
    assert subscribed.state["crash"] == polled.state["crash"]
    _, owed = subscribed.state["restart"]
    assert owed == polled.state["restart"][1] and owed
    for run in (polled, subscribed):
        restart = run.start + RESTART
        read_at_restart = {(channel, sequence) for at, sends in run.reads
                           if at == restart for channel, sequence, _ in sends}
        read_after = {(channel, sequence) for at, sends in run.reads
                      if at > restart for channel, sequence, _ in sends}
        assert set(owed) <= read_at_restart
        assert not set(owed) & read_after
