"""Packet timing taken from outside the program.

The benchmark owns these probes (choosing-metrics: "record spans from
the benchmark's own files, around the calls into each layer"): they use
``host.subscribe``, the same ``transfer.on_recv`` wrapper
``repro.experiments.topology`` uses and a like one around
``CounterpartyChain.submit``, so they work with tracing off and cost the
same in every run.  Every
timestamp is simulated time read off the event itself, never the wall
clock, so what they yield is exact for a seed.

Subscribing draws one observation delay per delivered event from the
host's rng, so an observed world is a different (equally valid) sample
than an unobserved one; every run of the benchmark is observed alike.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.ibc.apps.transfer import FungibleTokenPacketData


@dataclass(frozen=True)
class Delivery:
    """One packet's life: handed to the source chain, committed there,
    received on-chain at the destination."""

    source: str
    destination: str
    #: When the sender submitted it (choosing-metrics: an open loop times
    #: a request from when it was due).  Observable on counterparties,
    #: where sends enter through ``submit``; a guest-side send is first
    #: seen at its on-chain commit, so there the two coincide.
    due_at: float
    committed_at: float
    received_at: float

    @property
    def latency(self) -> float:
        return self.received_at - self.due_at


def final_receiver(payload: bytes) -> str:
    """The terminal ICS-20 receiver of a (possibly ``fwd:``) transfer."""
    return FungibleTokenPacketData.from_bytes(payload).receiver.rsplit("|", 1)[-1]


class Observer:
    """Commit, finality and receive times of every packet in a world.

    ``peers`` maps ``(chain, channel on that chain)`` to the chain at
    the other end; it may be filled in after construction (links open
    later than the observer attaches) as long as it is complete before
    the first packet lands.
    """

    def __init__(self, sim, host, counterparties: dict, peers: dict,
                 store=None, store_guest: str = "") -> None:
        self.sim = sim
        self.peers = peers
        #: (source chain, source channel, sequence) -> (due, commit) times.
        self._commits: dict[tuple[str, str, int], tuple[float, float]] = {}
        self.deliveries: list[Delivery] = []
        #: Per guest: guest-side IBC writes a peer must later prove, as
        #: (event id, time, is a SEND_PACKET); blocks as (event id,
        #: height); finality times.
        self._writes: dict[str, list[tuple[int, float, bool]]] = {}
        self._blocks: dict[str, list[tuple[int, int]]] = {}
        self._finalised: dict[tuple[str, int], float] = {}
        #: Final receiver tag -> time, for transfers routed over hops.
        self.tag_due: dict[str, float] = {}
        self.tag_received: dict[str, float] = {}
        #: Live bytes of ``store``, sampled once per block of its guest.
        self.live_bytes: list[int] = []
        self._store = store
        self._store_guest = store_guest
        self.counterparties = counterparties

        host.subscribe("PacketCommitted", self._on_guest_commit)
        host.subscribe("PacketReceived", self._on_guest_receive)
        host.subscribe("NewBlock", self._on_new_block)
        host.subscribe("FinalisedBlock", self._on_finalised)
        for name, chain in counterparties.items():
            self._wrap_cp_submit(name, chain)
            self._wrap_cp_receive(name, chain)

    # -- guest side ------------------------------------------------------

    def _on_guest_commit(self, event) -> None:
        payload = event.payload
        guest = payload["guest"]
        self._commits[(guest, payload["channel"], payload["sequence"])] = (
            event.time, event.time)
        self._writes.setdefault(guest, []).append(
            (event.event_id, event.time, not payload.get("forwarded", False)))

    def _on_guest_receive(self, event) -> None:
        payload = event.payload
        guest = payload["guest"]
        packet = payload["packet"]
        # The receive writes the ack, which waits for finality like a send.
        self._writes.setdefault(guest, []).append(
            (event.event_id, event.time, False))
        source = self.peers.get((guest, str(packet.destination_channel)))
        self._delivered(source, guest, packet, event.time)

    def _on_new_block(self, event) -> None:
        payload = event.payload
        self._blocks.setdefault(payload["guest"], []).append(
            (event.event_id, payload["height"]))
        if self._store is not None and payload["guest"] == self._store_guest:
            self.live_bytes.append(self._store.storage_bytes())

    def _on_finalised(self, event) -> None:
        payload = event.payload
        self._finalised.setdefault((payload["guest"], payload["height"]),
                                   event.time)

    # -- counterparty side -----------------------------------------------

    def _wrap_cp_submit(self, name: str, chain) -> None:
        """Note when each send was handed to the counterparty.  Calls
        queue until the next block executes them; whichever of them
        sends packets stamps them with its own submission time (due)
        and the block's time (commit)."""
        inner = chain.submit

        def timed_submit(fn, on_result=None):
            due = self.sim.now

            def stamped():
                before = len(chain.sent_packets)
                value = fn()
                for packet, _height in chain.sent_packets[before:]:
                    key = (name, str(packet.source_channel), packet.sequence)
                    self._commits[key] = (due, self.sim.now)
                    self.tag_due.setdefault(final_receiver(packet.payload), due)
                return value

            inner(stamped, on_result)

        chain.submit = timed_submit

    def _wrap_cp_receive(self, name: str, chain) -> None:
        inner = chain.transfer.on_recv

        def timed_recv(packet):
            ack = inner(packet)
            if ack.success:
                source = self.peers.get((name, str(packet.destination_channel)))
                self._delivered(source, name, packet, self.sim.now)
                self.tag_received.setdefault(final_receiver(packet.payload),
                                             self.sim.now)
            return ack

        chain.transfer.on_recv = timed_recv

    def _delivered(self, source, destination: str, packet, when: float) -> None:
        times = self._commits.pop(
            (source, str(packet.source_channel), packet.sequence), None)
        if times is not None:
            self.deliveries.append(
                Delivery(source, destination, times[0], times[1], when))

    # -- what the workloads read -----------------------------------------

    def undelivered(self) -> int:
        """Committed packets never seen at their destination."""
        return len(self._commits)

    def finality_latencies(self, sends_only: bool = False
                           ) -> tuple[list[float], int]:
        """Fig. 2's quantity for every guest-side write: time from the
        write to the finalisation of the first guest block generated
        after it (event ids give the exact on-chain order).  Returns the
        latencies and the number of writes never finalised.
        ``sends_only`` keeps SEND_PACKET commits alone: Fig. 2 proper."""
        latencies: list[float] = []
        pending = 0
        for guest, writes in self._writes.items():
            blocks = sorted(self._blocks.get(guest, ()))
            ids = [event_id for event_id, _ in blocks]
            for event_id, when, is_send in writes:
                if sends_only and not is_send:
                    continue
                index = bisect_right(ids, event_id)
                done = (self._finalised.get((guest, blocks[index][1]))
                        if index < len(blocks) else None)
                if done is None:
                    pending += 1
                else:
                    latencies.append(done - when)
        return latencies, pending

    def longest_service_gap(self, deliveries=None) -> float:
        """Longest simulated interval during which at least one send was
        outstanding and nothing was received (time without service)."""
        chosen = self.deliveries if deliveries is None else deliveries
        # Receives sort before commits at equal times, so a packet
        # committed the instant another lands does not hide a gap.
        marks = sorted([(d.received_at, 0) for d in chosen]
                       + [(d.due_at, 1) for d in chosen])
        outstanding = 0
        waiting_since = 0.0
        longest = 0.0
        for when, is_commit in marks:
            if is_commit:
                if outstanding == 0:
                    waiting_since = when
                outstanding += 1
            else:
                longest = max(longest, when - waiting_since)
                outstanding -= 1
                waiting_since = when
        return longest
