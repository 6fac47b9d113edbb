"""The event loop: a priority queue of timestamped callbacks.

Design notes:

* Time is a float of seconds since simulation start.
* The queue is one ``heapq`` of ``(time, sequence, handle)``.  The
  sequence number increases with every scheduled event, so events at
  equal times fire in scheduling order, runs are deterministic and a
  comparison never reaches the handle.
* Cancellation is lazy: a cancelled handle stays in the heap and is
  skipped when its time comes.  The kernel counts the cancelled handles
  still queued, which keeps :meth:`Simulation.pending_events` exact.
  Nothing removes them in bulk: the ledger's workloads cancel under 1 %
  of what they schedule (``tests/test_traffic_audit.py`` gates it at 5 %).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from repro.errors import SimulationError
from repro.observability.trace import NULL_TRACER
from repro.sim.rng import Rng


class EventHandle:
    """A scheduled callback; keep it to :meth:`cancel` the event."""

    __slots__ = ("callback", "args", "cancelled", "_sim")

    def __init__(self, callback: Callable[..., None], args: tuple[Any, ...],
                 sim: "Simulation" = None) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulation whose queue holds this handle; ``None`` once it
        #: has been popped, so a late ``cancel`` is not counted.
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._cancelled += 1


class Simulation:
    """Deterministic discrete-event simulation loop."""

    def __init__(self, seed: int = 0, tracer=None) -> None:
        self.now: float = 0.0
        self.rng = Rng(seed)
        #: Observability hook (docs/OBSERVABILITY.md).  Disabled by
        #: default: the shared NullTracer makes every probe a no-op.
        self.trace = tracer if tracer is not None else NULL_TRACER
        self.trace.bind(self.clock)
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._dispatched = 0
        #: Cancelled handles still in the queue.
        self._cancelled = 0

    def clock(self) -> float:
        """The simulated time (the clock a tracer is bound to)."""
        return self.now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before now ({self.now})")
        handle = EventHandle(callback, args, self)
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, handle))
        self.trace.count("sim.events.scheduled")
        return handle

    def _dispatch_next(self, until: float | None) -> bool:
        """Run the next live event at time ≤ ``until``; ``False`` if
        there is none."""
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            time, _, handle = heapq.heappop(queue)
            handle._sim = None
            if handle.cancelled:
                self._cancelled -= 1
                self.trace.count("sim.events.cancelled")
                continue
            self.now = time
            self._dispatched += 1
            self.trace.count("sim.events.dispatched")
            handle.callback(*handle.args)
            return True
        return False

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        return self._dispatch_next(None)

    def run_until(self, time: float) -> None:
        """Run every event scheduled strictly before or at ``time``, then
        advance the clock to ``time``."""
        if time < self.now:
            raise SimulationError("run_until cannot move time backwards")
        while self._dispatch_next(time):
            pass
        self.now = time

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (bounded by ``max_events``)."""
        for _ in range(max_events):
            if not self.step():
                return
        # The budget is spent; that is only an error if work remains
        # (draining in *exactly* ``max_events`` events is a success).
        if self.pending_events() == 0:
            return
        raise SimulationError(f"simulation exceeded {max_events} events")

    def pending_events(self) -> int:
        """Live (non-cancelled) events in the queue — O(1)."""
        return len(self._queue) - self._cancelled

    def iter_pending(self) -> Iterator[tuple[float, EventHandle]]:
        """Yield ``(time, handle)`` for every queued live event.

        Order is unspecified (heap order); checkpointing uses this to
        validate queued continuations without reaching into the queue.
        """
        for time, _, handle in self._queue:
            if not handle.cancelled:
                yield time, handle

    def dispatched_events(self) -> int:
        """Events executed so far (checkpoint/replay audits align on
        this count)."""
        return self._dispatched
