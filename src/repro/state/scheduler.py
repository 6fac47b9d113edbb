"""Pluggable sealing schedulers (§III-A meets §V-D economics).

The lagged-sealing rule (:class:`repro.ibc.host._SequenceTracker`)
decides which entries are *safe* to seal — sealing them can never block
a future insert or proof.  The scheduler decides which safe entries to
seal *now*.  Because sealing is root-neutral, the choice is invisible
to consensus: two validators running different schedulers produce
identical state roots, so the policy is a per-operator economic knob,
not a protocol parameter.

Three policies:

* :class:`EagerScheduler` — seal the moment an entry is safe.  Minimal
  live bytes, one seal write per entry (the Guest Contract's default).
* :class:`LazyScheduler` — batch seals and apply them ``batch`` at a
  time, amortizing the trie-path rewrites; live bytes overshoot by at
  most one batch of entries.
* :class:`RentAwareScheduler` — seal only when the projected *host
  rent* for the store's live bytes exceeds an annual budget, then seal
  oldest-first until back under it.  Live bytes track the budget
  instead of the traffic.

The host drains a scheduler in a loop (see ``IbcHost._drain_seals``):
``drain`` returns a batch to seal, the host seals it, and the next
``drain`` call sees the updated store — so the rent-aware policy can
re-check its budget between batches.  A ``drain`` returning an empty
list ends the loop; every non-empty batch removes entries from the
pending queue, so the loop always terminates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.units import RENT_LAMPORTS_PER_BYTE_YEAR

#: A sealable entry: (store path prefix, sequence number).
SealTarget = Tuple[str, int]

#: Cap on entries returned per drain call, so a deeply-backlogged
#: scheduler still yields control (and fresh store stats) regularly.
_DRAIN_BATCH = 64


class SealScheduler:
    """Base policy: tracks the safe-to-seal queue and counters.

    Subclasses override :meth:`drain`.  State is plain picklable data,
    so schedulers survive world checkpoints unchanged.
    """

    def __init__(self) -> None:
        self._pending: Deque[SealTarget] = deque()
        self.offered = 0   # entries ever handed to the scheduler
        self.sealed = 0    # entries the scheduler released for sealing

    def offer(self, prefix: str, sequence: int) -> None:
        """An entry became safe to seal; the policy decides when."""
        self._pending.append((prefix, sequence))
        self.offered += 1

    def pending_count(self) -> int:
        return len(self._pending)

    def drain(self, store) -> List[SealTarget]:
        """Return the next batch of entries to seal now (may be empty)."""
        raise NotImplementedError

    def flush(self) -> List[SealTarget]:
        """Release everything pending, regardless of policy (shutdown /
        end-of-experiment accounting)."""
        due = list(self._pending)
        self._pending.clear()
        self.sealed += len(due)
        return due

    def _take(self, count: int) -> List[SealTarget]:
        due = [self._pending.popleft()
               for _ in range(min(count, len(self._pending)))]
        self.sealed += len(due)
        return due


class EagerScheduler(SealScheduler):
    """Seal as soon as an entry is safe (the paper's default)."""

    def drain(self, store) -> List[SealTarget]:
        return self._take(_DRAIN_BATCH)


class LazyScheduler(SealScheduler):
    """Accumulate safe entries and seal them ``batch`` at a time."""

    def __init__(self, batch: int = 64) -> None:
        super().__init__()
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch

    def drain(self, store) -> List[SealTarget]:
        if len(self._pending) < self.batch:
            return []
        return self._take(self.batch)


class RentAwareScheduler(SealScheduler):
    """Seal when projected annual rent for live bytes exceeds a budget.

    The projection prices the store's current ``storage_bytes`` at the
    host's rent rate (:data:`repro.units.RENT_LAMPORTS_PER_BYTE_YEAR`).
    While over budget, the oldest safe entries are released; each batch
    shrinks the live set, and the next ``drain`` re-projects against
    the updated store.
    """

    def __init__(self, annual_budget_lamports: int) -> None:
        super().__init__()
        if annual_budget_lamports < 0:
            raise ValueError("annual budget must be >= 0")
        self.annual_budget_lamports = annual_budget_lamports

    def projected_rent(self, store) -> float:
        return store.storage_bytes() * RENT_LAMPORTS_PER_BYTE_YEAR

    def drain(self, store) -> List[SealTarget]:
        if self.projected_rent(store) <= self.annual_budget_lamports:
            return []
        return self._take(_DRAIN_BATCH)


def scheduler_from_name(name: str, **kwargs) -> SealScheduler:
    """Build a scheduler from its sweep/CLI name."""
    if name == "eager":
        return EagerScheduler()
    if name == "lazy":
        return LazyScheduler(batch=int(kwargs.get("batch", 64)))
    if name == "rent-aware":
        return RentAwareScheduler(
            annual_budget_lamports=int(kwargs["annual_budget_lamports"]),
        )
    raise ValueError(f"unknown sealing scheduler {name!r}")
