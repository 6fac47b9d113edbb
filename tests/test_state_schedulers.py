"""Sealing schedulers (docs/STATE.md).

The scheduler decides *when* safe-to-seal entries are sealed; the
lagged-sealing rule decides *which* are safe.  Because sealing is
root-neutral, policy choice must be invisible to consensus: hosts
running different schedulers over the same traffic end on identical
roots, differing only in how many entries are still live.  Covered:

* drain/flush semantics and counters of each policy on a bare store;
* ``scheduler_from_name`` construction and rejection;
* host-level root-neutrality across policies over real relayed
  traffic (ProtoFabric), including the offered == sealed + pending
  conservation law.
"""

import pytest

from repro.state import (
    EagerScheduler,
    LazyScheduler,
    RentAwareScheduler,
    scheduler_from_name,
)
from repro.trie.store import ProvableStore
from repro.units import RENT_LAMPORTS_PER_BYTE_YEAR

from tests.helpers import ProtoFabric

PREFIX = "receipts/ports/transfer/channels/channel-0"


def offer_range(scheduler, count):
    for seq in range(count):
        scheduler.offer(PREFIX, seq)


def seeded_store(entries=0):
    store = ProvableStore()
    for seq in range(entries):
        store.set_seq(PREFIX, seq, b"\x01")
    return store


def drain_fully(scheduler, store):
    """The host's drain loop: seal batches until the policy is quiet."""
    sealed = []
    while True:
        due = scheduler.drain(store)
        if not due:
            return sealed
        for prefix, seq in due:
            store.seal_seq(prefix, seq)
        sealed.extend(due)


# ----------------------------------------------------------------------
# Policy semantics on a bare store
# ----------------------------------------------------------------------


class TestEager:
    def test_drains_everything_offered(self):
        store = seeded_store(10)
        scheduler = EagerScheduler()
        offer_range(scheduler, 10)
        sealed = drain_fully(scheduler, store)
        assert [seq for _, seq in sealed] == list(range(10))
        assert scheduler.pending_count() == 0
        assert scheduler.sealed == 10
        # Adjacent sealed leaves re-collapse into stubs, so the stub
        # count is positive but smaller than the entry count.
        assert 1 <= store.trie.sealed_count() <= 10
        assert store.storage_bytes() == 0

    def test_drain_batches_but_loop_terminates(self):
        store = seeded_store(200)
        scheduler = EagerScheduler()
        offer_range(scheduler, 200)
        first = scheduler.drain(store)
        assert len(first) == 64  # one batch, not the whole backlog
        for prefix, seq in first:
            store.seal_seq(prefix, seq)
        assert len(drain_fully(scheduler, store)) == 136


class TestLazy:
    def test_holds_until_batch_accumulates(self):
        store = seeded_store(10)
        scheduler = LazyScheduler(batch=4)
        offer_range(scheduler, 3)
        assert scheduler.drain(store) == []
        assert scheduler.pending_count() == 3
        scheduler.offer(PREFIX, 3)
        assert len(scheduler.drain(store)) == 4
        assert scheduler.pending_count() == 0

    def test_flush_releases_a_partial_batch(self):
        scheduler = LazyScheduler(batch=64)
        offer_range(scheduler, 5)
        assert scheduler.drain(seeded_store(5)) == []
        assert len(scheduler.flush()) == 5
        assert scheduler.pending_count() == 0
        assert scheduler.offered == scheduler.sealed == 5

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch"):
            LazyScheduler(batch=0)


class TestRentAware:
    def test_under_budget_never_seals(self):
        store = seeded_store(20)
        rent = store.storage_bytes() * RENT_LAMPORTS_PER_BYTE_YEAR
        scheduler = RentAwareScheduler(annual_budget_lamports=int(rent) + 1)
        offer_range(scheduler, 20)
        assert scheduler.drain(store) == []
        assert scheduler.pending_count() == 20
        assert scheduler.sealed == 0

    def test_over_budget_seals_until_back_under(self):
        # More entries than one drain batch, so the budget re-check
        # between batches is what stops the sealing.
        store = seeded_store(200)
        half = store.storage_bytes() // 2
        budget = int(half * RENT_LAMPORTS_PER_BYTE_YEAR)
        scheduler = RentAwareScheduler(annual_budget_lamports=budget)
        offer_range(scheduler, 200)
        drain_fully(scheduler, store)
        assert scheduler.projected_rent(store) <= budget
        # It stopped as soon as it was back under: something is pending.
        assert scheduler.pending_count() > 0
        assert scheduler.offered == scheduler.sealed + scheduler.pending_count()

    def test_zero_budget_behaves_eagerly(self):
        store = seeded_store(6)
        scheduler = RentAwareScheduler(annual_budget_lamports=0)
        offer_range(scheduler, 6)
        drain_fully(scheduler, store)
        assert scheduler.pending_count() == 0
        assert scheduler.sealed == 6
        assert store.storage_bytes() == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            RentAwareScheduler(annual_budget_lamports=-1)


class TestFactory:
    def test_builds_each_policy(self):
        assert isinstance(scheduler_from_name("eager"), EagerScheduler)
        lazy = scheduler_from_name("lazy", batch=7)
        assert isinstance(lazy, LazyScheduler) and lazy.batch == 7
        rent = scheduler_from_name("rent-aware", annual_budget_lamports=10)
        assert isinstance(rent, RentAwareScheduler)
        assert rent.annual_budget_lamports == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sealing scheduler"):
            scheduler_from_name("clairvoyant")


# ----------------------------------------------------------------------
# Host-level root-neutrality over real relayed traffic
# ----------------------------------------------------------------------


def run_traffic(scheduler, packets=24):
    """B sends ``packets`` transfers to A; A's host runs ``scheduler``."""
    fabric = ProtoFabric()
    a = fabric.add_chain("a")
    b = fabric.add_chain("b")
    if scheduler is not None:
        a.host.seal_scheduler = scheduler
    chan_a, chan_b = fabric.link("a", "b")
    b.bank.mint("carol", "PICA", 10 * packets)
    for _ in range(packets):
        packet = b.send_transfer(chan_b, "PICA", 10, "carol", "dave")
        fabric.deliver(b, packet)
    return a


class TestHostRootNeutrality:
    def test_every_policy_lands_on_the_same_root(self):
        schedulers = {
            "eager": EagerScheduler(),
            "lazy": LazyScheduler(batch=8),
            "rent-aware": RentAwareScheduler(annual_budget_lamports=0),
            "hoarder": RentAwareScheduler(annual_budget_lamports=10**15),
        }
        chains = {name: run_traffic(s) for name, s in schedulers.items()}
        roots = {name: bytes(chain.host.store.root_hash)
                 for name, chain in chains.items()}
        assert len(set(roots.values())) == 1

        # The policies really did behave differently: the hoarder kept
        # everything live, eager kept the least.
        live = {name: chain.host.store.storage_bytes()
                for name, chain in chains.items()}
        assert chains["hoarder"].host.store.trie.sealed_count() == 0
        assert chains["eager"].host.store.trie.sealed_count() >= 1
        assert live["eager"] <= live["lazy"] <= live["hoarder"]
        assert live["eager"] < live["hoarder"]
        # ...and each conserved its offers.
        for name, scheduler in schedulers.items():
            assert (scheduler.offered
                    == scheduler.sealed + scheduler.pending_count()), name

    def test_flush_converges_live_bytes_too(self):
        eager = run_traffic(EagerScheduler())
        hoarder_scheduler = RentAwareScheduler(annual_budget_lamports=10**15)
        hoarder = run_traffic(hoarder_scheduler)
        assert hoarder.host.store.storage_bytes() > eager.host.store.storage_bytes()
        for prefix, seq in hoarder_scheduler.flush():
            hoarder.host.store.seal_seq(prefix, seq)
        assert (bytes(hoarder.host.store.root_hash)
                == bytes(eager.host.store.root_hash))
        assert (hoarder.host.store.trie.sealed_count()
                == eager.host.store.trie.sealed_count())
