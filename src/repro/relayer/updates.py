"""Client-update strategies: how one end's light client is advanced.

Every proof the relayer submits to a chain is checked against a
consensus state that chain's client *of the peer* already holds, so
before proving at a height the relayer must bring that client there.
This module is the only place the three mechanisms are named:

* :class:`ChunkedTendermint` — the guest's client of an IBC-native
  counterparty: ~15 host transactions per update (the paper's ~36 under
  the ``"paper"`` plan of :data:`LC_UPDATE_PLANS`, Fig. 4/5), one update
  at a time, its transactions handed to the host in one wave and the
  updates paced by :data:`LC_UPDATE_TXS_PER_SECOND`;
* :class:`HeaderPush` — the counterparty's client of a guest: the
  finalised header and its signatures in one call (Alg. 2 l.6), with
  every datagram it proves — packet, ack or handshake step — queued
  behind it for the same block: update, then act, in one block;
* :class:`SiblingAdopt` — a guest's client of another guest on the same
  host: one idempotent SIBLING_UPDATE instruction, riding as a prelude
  of the packet bundle or handshake transaction that needs it
  (docs/FABRIC.md).

The interface is :meth:`ClientUpdates.cover`: run ``then(height)`` once
the client covers ``height`` (``height`` may come back higher than
asked: a chunked update always targets the counterparty's tip), or, for
a header push or a sibling prelude, at once: the update rides in front
of what ``then`` submits.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.errors import ReproError
from repro.guest import instructions as ins
from repro.guest.api import LcUpdateResult
from repro.lightclient.chunked import plan_paper_update, plan_update_chunks
from repro.lightclient.guest_client import GuestClientUpdate
from repro.relayer.endpoint import CounterpartyEnd, GuestEnd

#: Host transactions per second a relayer spends on chunked updates in
#: the long run: an update may start no earlier than the previous one's
#: start plus its transaction count over this rate.  1.5 is what three
#: transactions in flight sustained on a calm host (15.5 txs / 9.9 s,
#: 36.3 / 22.4 s), so fee per packet stays where that window left it;
#: without a budget the burst below updates once per counterparty block
#: and fee per packet rises 10-40 % (docs/PERFORMANCE.md).
LC_UPDATE_TXS_PER_SECOND = 1.5


class UpdatePlan(NamedTuple):
    """What one chunked update carries and how it is handed to the host."""

    #: :mod:`repro.lightclient.chunked` planner: update -> transactions.
    planner: Callable
    #: Staging transactions kept in flight, LC_FINALIZE going out behind
    #: the last of them; ``None`` is the whole update at once.
    window: Optional[int]


#: The chunked update by ``RelayerConfig.lc_update_plan`` — the one
#: place a plan is chosen.  ``"quorum"``: the signatures the client's
#: thresholds need and a validator-set delta, every transaction in
#: flight at once, LC_FINALIZE among them (they are mutually
#: independent: the contract adopts in whichever lands last).
#: ``"paper"``: the deployment's whole commit and whole set, three
#: transactions at a time and LC_FINALIZE last — that window is what
#: calibrates Fig. 4's tens-of-seconds latency; only the Fig. 4/5
#: reproduction asks for it.  The Guest Contract accepts either and is
#: not told which.
LC_UPDATE_PLANS = {
    "quorum": UpdatePlan(plan_update_chunks, window=None),
    "paper": UpdatePlan(plan_paper_update, window=3),
}

Then = Callable[[int], None]


class ClientUpdates:
    """Keeps ``holder``'s client of ``source`` fresh for one relayer."""

    def __init__(self, relayer, holder, source) -> None:
        self.relayer = relayer
        self.sim = relayer.sim
        self.holder = holder
        self.source = source

    def cover(self, height: int, then: Then) -> None:
        """Run ``then(h)``, ``h >= height``, once the client covers
        ``h``.  By default at once: what ``then`` submits carries
        :meth:`prelude`, so the update runs in front of it."""
        then(height)

    def covers(self, height: int) -> bool:
        """Does :meth:`cover` run ``then`` at once for ``height``?"""
        return True

    def refused(self, height: int) -> bool:
        """Was a datagram proven at ``height`` refused because the
        update it rode behind was?  The default says no."""
        return False

    def prelude(self, heights) -> tuple[bytes, ...]:
        """Instructions a bundle proving at ``heights`` must run first."""
        return ()

    def prime(self, then: Callable[[], None]) -> None:
        """Before a handshake: make the client track *some* height of
        the source, if it needs one to talk."""
        then()

    def reset(self) -> None:
        """A relayer crash: drop queued work and timers."""

    def kick(self) -> None:
        """The source chain produced a block: start work that was
        waiting for one."""


class ChunkedTendermint(ClientUpdates):
    """Chunked Tendermint updates on a guest (the Fig. 4/5 flow).

    All light-client work funnels through one at-a-time chunked update;
    queued items declare the minimum counterparty height they need and
    run as soon as an update covers it.

    Save up, then spend at once: an update's host transactions are a
    budget of :data:`LC_UPDATE_TXS_PER_SECOND`, charged from the moment
    the update starts whether or not it succeeds.  The next update waits
    until the last one is paid for (one hold-down timer; everything
    queued meanwhile rides it); no credit builds up while the link is
    idle, so the first update after a pause starts at once and the one
    after it is spaced like any other.
    """

    def __init__(self, relayer, holder: GuestEnd, source: CounterpartyEnd) -> None:
        super().__init__(relayer, holder, source)
        self._plan = LC_UPDATE_PLANS[relayer.config.lc_update_plan]
        #: When the running update started, and the earliest simulated
        #: time the budget allows the next one to.
        self._lc_started = self._lc_next_start = float("-inf")
        self._lc_holddown_handle = None
        self.reset()

    def cover(self, height: int, then: Then) -> None:
        if self.covers(height):
            then(self.holder.client.latest_height())
            return
        self._lc_queue.append((height, then, self.sim.now))
        self.kick()

    def covers(self, height: int) -> bool:
        return self.holder.client.latest_height() >= height

    def reset(self) -> None:
        #: [(min counterparty height, action(height), queued at)]
        #: awaiting an update.
        self._lc_queue: list[tuple[int, Then, float]] = []
        self._lc_busy = False
        if self._lc_holddown_handle is not None:
            self._lc_holddown_handle.cancel()
            self._lc_holddown_handle = None

    def kick(self) -> None:
        if self._lc_busy or not self._lc_queue:
            return
        if self._lc_next_start > self.sim.now:
            # The last update is not paid for yet.  One timer is enough
            # — every queued waiter is flushed by the same update.
            if self._lc_holddown_handle is None:
                self._lc_holddown_handle = self.sim.schedule_at(
                    self._lc_next_start, self._holddown_over)
            return
        chain = self.source.chain
        target = chain.height
        needed = max(height for height, _, _ in self._lc_queue)
        if target < needed:
            # The needed block is not produced yet: the relayer kicks
            # again at each block of the source chain.
            return
        self._lc_busy = True
        self._lc_started = self.sim.now
        update = chain.light_client_update(target)
        self.sim.trace.begin("relay.lc_update", key=target, actor="relayer")
        self.holder.api.submit_lc_update(
            update, window=self._plan.window, planner=self._plan.planner,
            on_done=partial(self._lc_done,
                            generation=self.relayer._incarnation),
        )

    def _holddown_over(self) -> None:
        self._lc_holddown_handle = None
        self.kick()

    def _lc_done(self, result: LcUpdateResult, generation: int) -> None:
        """An update came back.  It is booked whoever started it, as a
        delivery bundle is (``Relayer._delivered``): its transactions
        were paid for.  Only the incarnation that started it continues
        it — the budget, the span, the waiters and the next kick."""
        trace = self.sim.trace
        trace.count("relay.lc_updates")
        trace.observe("relay.lc_update.txs", result.transaction_count)
        trace.observe("relay.lc_update.fee", result.total_fee)
        trace.observe("relay.lc_update.peak_in_flight", result.peak_in_flight)
        self.relayer.metrics.lc_updates.append(result)
        self.relayer.ledger.record("lc-update", result.total_fee,
                                   result.transaction_count)
        if generation != self.relayer._incarnation:
            # Started before a crash, finished after the restart: the
            # new incarnation's LC state machine is not its to touch.
            trace.count("relay.lc_updates.stale_dropped")
            return
        self._lc_busy = False
        self._lc_next_start = (
            self._lc_started
            + result.transaction_count / LC_UPDATE_TXS_PER_SECOND)
        trace.finish("relay.lc_update", key=result.height,
                     transactions=result.transaction_count,
                     success=result.success)
        if result.success:
            ready = [w for w in self._lc_queue if w[0] <= result.height]
            self._lc_queue = [w for w in self._lc_queue if w[0] > result.height]
            for _, action, since in ready:
                trace.observe("relay.lc_update.wait", self.sim.now - since)
                action(result.height)
        if self._lc_queue:
            self.kick()


class HeaderPush(ClientUpdates):
    """Guest headers pushed to the counterparty's guest client."""

    def cover(self, height: int, then: Then) -> None:
        """Update, then act, in one counterparty block: the chain runs a
        block's calls in submission order, so what ``then`` submits
        executes behind the header it is proven against (an ICS-18
        relayer's one ordered submission; on a guest the sibling
        :meth:`prelude` does the same).  Nothing is awaited, for a
        packet or a handshake step alike: if the header is refused the
        datagram is refused after it, on-chain, and both are counted
        (:meth:`refused` tells the two refusals apart)."""
        # Always pushed, even if the client may hold the height already
        # (empty blocks are skipped by Alg. 2, so usually it does not);
        # a repeated header is verified again and changes nothing.
        contract = self.source.contract
        block = contract.block_at(height)
        header = block.header
        update = GuestClientUpdate(
            header=header, signatures=dict(block.signers),
            # Always carry the header's own epoch: the counterparty's
            # client may have skipped epochs (it validates by hash and
            # the 1/3-overlap rule, so this is never trusted blindly).
            new_epoch=contract.epochs.get(header.epoch_id),
        )

        self.holder.chain.submit(partial(self.holder.client.update, update),
                                 on_result=self._pushed)
        then(height)

    def _pushed(self, result, cp_height: int) -> None:
        if isinstance(result, ReproError):
            # Stale or old-epoch header.
            self.sim.trace.count("relay.header_push.refused")

    def refused(self, height: int) -> bool:
        # The header went in front of the datagram in the same block:
        # had the client taken it, it would hold the height now.  A
        # frozen client refuses every header and every datagram, and
        # that is the step's own failure: it spends the retry budget.
        client = self.holder.client
        return not client.frozen and client.consensus_root(height) is None


class SiblingAdopt(ClientUpdates):
    """Host-verified adoption of a sibling guest's finalised heights.

    :meth:`refused` keeps the default on purpose.  The client lacking
    the proof height after a failed step does not say its adoption was
    refused (a host that reverts a failed transaction whole takes the
    prelude with the step), and the one refusal of a finalised height,
    a frozen client, is a failure the step must spend its attempts on."""

    def _covers(self, height: int) -> bool:
        return self.holder.client.consensus_root(height) is not None

    def prelude(self, heights) -> tuple[bytes, ...]:
        # Empty once the client covers a height (the instruction is
        # idempotent either way).
        return tuple(
            ins.sibling_update(str(self.holder.client_id), height)
            for height in sorted(set(heights)) if not self._covers(height))

    def prime(self, then: Callable[[], None]) -> None:
        # Proofs verify against adopted roots, and validate_self_client
        # reads the client's state summary: it needs a first height.
        # Nothing rides with it, so this adoption is the one awaited
        # as its own transaction.
        height = self.source.latest_final()
        if self._covers(height):
            then()
            return
        # Through the relayer's queue, like every guest-side submission:
        # a blackout refusal defers the adoption instead of raising.
        self.relayer._enqueue_bundle(partial(
            self.holder.api.sibling_update, str(self.holder.client_id),
            height, on_result=partial(self._primed, then)))

    def _primed(self, then: Callable[[], None], receipt) -> None:
        if receipt.success:
            then()
        else:  # transient (e.g. dropped in transit): retry
            self.sim.schedule(self.relayer.retry_policy.base_seconds,
                              self.prime, then)


def updates_for(relayer, holder, source) -> ClientUpdates:
    """The strategy advancing ``holder``'s client of ``source``."""
    if isinstance(holder, CounterpartyEnd):
        return HeaderPush(relayer, holder, source)
    if isinstance(source, CounterpartyEnd):
        return ChunkedTendermint(relayer, holder, source)
    return SiblingAdopt(relayer, holder, source)
