"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.observability import Tracer
from repro.sim import Simulation, lognormal_from_quantiles
from repro.sim.rng import Rng


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulation(seed=1)
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulation(seed=1)
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulation(seed=1)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulation(seed=1)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel(self):
        sim = Simulation(seed=1)
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_events_can_schedule_events(self):
        sim = Simulation(seed=1)
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(1.0, second)

        def second():
            fired.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_run_until_stops_at_boundary(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run_until(2.0)
        assert fired == ["in"]
        assert sim.now == 2.0
        assert sim.pending_events() == 1

    def test_run_until_cannot_rewind(self):
        sim = Simulation(seed=1)
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_runaway_guard(self):
        sim = Simulation(seed=1)

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_draining_in_exactly_max_events_is_not_a_runaway(self):
        """Regression: ``run(max_events=N)`` used to raise even when the
        N-th step emptied the queue — the guard fired before checking
        whether anything was actually left."""
        sim = Simulation(seed=1)
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.pending_events() == 0

    def test_run_raises_when_events_remain_past_the_budget(self):
        sim = Simulation(seed=1)
        for i in range(6):
            sim.schedule(float(i + 1), lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=5)

    def test_run_budget_boundary_ignores_cancelled_leftovers(self):
        """Tombstones left in the queue after the last step must not
        trip the runaway guard — only live events count."""
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(1.0, fired.append, "a")
        doomed = sim.schedule(2.0, fired.append, "b")
        doomed.cancel()
        sim.run(max_events=1)
        assert fired == ["a"]
        assert sim.pending_events() == 0


class TestCancellationEdgeCases:
    def test_cancel_head_of_queue_event(self):
        """Cancelling the event at the head of the heap must not stall
        the loop or fire the cancelled callback."""
        sim = Simulation(seed=1)
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        sim.schedule(2.0, fired.append, "tail")
        head.cancel()
        assert sim.step() is True      # skips the cancelled head, runs tail
        assert fired == ["tail"]
        assert sim.now == 2.0

    def test_cancel_head_then_run_until(self):
        sim = Simulation(seed=1)
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        sim.schedule(3.0, fired.append, "tail")
        head.cancel()
        sim.run_until(3.0)
        assert fired == ["tail"]
        assert sim.now == 3.0

    def test_run_until_exactly_at_event_time_is_inclusive(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(5.0, fired.append, "boundary")
        sim.run_until(5.0)
        assert fired == ["boundary"]
        assert sim.now == 5.0
        assert sim.pending_events() == 0

    def test_run_until_boundary_fires_all_equal_time_events(self):
        sim = Simulation(seed=1)
        fired = []
        for label in "abc":
            sim.schedule(5.0, fired.append, label)
        sim.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_pending_events_after_mass_cancellation(self):
        sim = Simulation(seed=1)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert sim.pending_events() == 100
        for handle in handles:
            handle.cancel()
        assert sim.pending_events() == 0
        # The heap still holds the tombstones; draining must be a no-op.
        assert sim.step() is False
        assert sim.now == 0.0

    def test_cancel_event_scheduled_for_now(self):
        sim = Simulation(seed=1)
        fired = []
        handle = sim.schedule(0.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.pending_events() == 0


class TestCompaction:
    """Lazy-cancellation accounting through the public counts: a
    cancelled event stays queued until its time comes and is never
    removed in bulk.  (The class is named after the heap rebuild these
    scenarios were first written against; the name is kept so the test
    ids stay stable.)"""

    def test_below_threshold_keeps_tombstones_resident(self):
        sim = Simulation(seed=1)
        fired = []
        for i in range(200):
            sim.schedule(float(i + 1), fired.append, i)
        doomed = [sim.schedule(float(i + 500), fired.append, "doomed")
                  for i in range(40)]
        for handle in doomed:
            handle.cancel()
        # 40 cancelled events wait for their time; none of them counts.
        assert sim.pending_events() == 200
        sim.run()
        assert fired == list(range(200))
        assert sim.dispatched_events() == 200
        assert sim.pending_events() == 0

    def test_compacted_schedule_still_fires_in_order(self):
        sim = Simulation(seed=1)
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        doomed = [sim.schedule(float(i + 50), lambda: None)
                  for i in range(150)]
        for handle in doomed:
            handle.cancel()
        sim.schedule(0.5, fired.append, "early")
        sim.run()
        assert fired == ["early", 0, 1, 2, 3, 4]

    def test_cancel_is_idempotent_for_accounting(self):
        sim = Simulation(seed=1)
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_dispatched_events_counts_only_fired_callbacks(self):
        sim = Simulation(seed=1)
        for i in range(6):
            sim.schedule(float(i + 1), lambda: None)
        victim = sim.schedule(0.5, lambda: None)
        victim.cancel()
        assert sim.dispatched_events() == 0
        sim.run()
        assert sim.dispatched_events() == 6
        assert sim.pending_events() == 0

    def test_dispatch_of_tombstone_repairs_the_count(self):
        # A cancelled head entry popped during dispatch must leave the
        # tombstone count so pending_events stays exact.
        sim = Simulation(seed=1)
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        tail = sim.schedule(2.0, fired.append, "tail")
        head.cancel()
        assert sim.pending_events() == 1
        assert sim.step() is True
        assert fired == ["tail"]
        assert sim.pending_events() == 0
        # Cancelling what already left the queue counts for nothing.
        tail.cancel()
        assert sim.pending_events() == 0
        assert sim.dispatched_events() == 1


# ----------------------------------------------------------------------
# Differential: the kernel against a sorted list
# ----------------------------------------------------------------------


class ListSimulation:
    """The reference model: the live events as a list sorted by
    ``(time, sequence)``; a cancelled event leaves it on the spot."""

    def __init__(self):
        self.now = 0.0
        self.live = []
        self.sequence = self.dispatched = self.cancelled = 0

    def schedule(self, delay, callback, *args):
        self.sequence += 1
        entry = (self.now + delay, self.sequence, callback, args)
        self.live.append(entry)
        self.live.sort(key=lambda queued: queued[:2])
        return _ListHandle(self, entry)

    def _fire_next(self, until):
        if not self.live or (until is not None and self.live[0][0] > until):
            return False
        self.now, _, callback, args = self.live.pop(0)
        self.dispatched += 1
        callback(*args)
        return True

    def step(self):
        return self._fire_next(None)

    def run_until(self, time):
        while self._fire_next(time):
            pass
        self.now = time

    def run(self):
        while self.step():
            pass

    def pending_events(self):
        return len(self.live)


class _ListHandle:
    def __init__(self, model, entry):
        self.model, self.entry = model, entry

    def cancel(self):
        if self.entry in self.model.live:
            self.model.live.remove(self.entry)
            self.model.cancelled += 1


#: Few, exactly representable delays: sums tie often and tie exactly.
_DELAYS = (0.0, 0.5, 1.0, 2.0)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 40))
#: What a callback does when it fires: cancel some handle ever made
#: (queued, fired or already cancelled), schedule more work for this
#: instant (delay 0) or later, whose callbacks do the same.
_scripts = st.recursive(
    st.lists(_cancel, max_size=2),
    lambda children: st.lists(
        st.one_of(_cancel, st.tuples(
            st.just("spawn"), st.sampled_from(_DELAYS), children)),
        max_size=3),
    max_leaves=8)
_programs = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), st.sampled_from(_DELAYS), _scripts),
        _cancel,
        st.tuples(st.just("run_until"), st.sampled_from(_DELAYS)),
        st.tuples(st.just("step"))),
    max_size=25)


def play(sim, program):
    """Run ``program`` against ``sim``, then drain it.  Returns what was
    observable: each dispatch with its ``now``, and ``pending_events()``
    after every command."""
    handles, log = [], []

    def perform(script):
        for action in script:
            if action[0] == "spawn":
                _, delay, child_script = action
                handles.append(
                    sim.schedule(delay, fire, len(handles), child_script))
            elif handles:
                target = handles[action[1] % len(handles)]
                target.cancel()
                target.cancel()  # the second call counts for nothing

    def fire(ident, script):
        log.append(("fired", ident, sim.now))
        perform(script)

    for command in program + [("run",)]:
        if command[0] == "run_until":
            sim.run_until(sim.now + command[1])
        elif command[0] == "step":
            sim.step()
        elif command[0] == "run":
            sim.run()
        else:
            perform([command])
        log.append(("pending", sim.pending_events(), sim.now))
    return log


class TestAgainstSortedList:
    """Dispatch order is ``(time, sequence)``: ties fire in scheduling
    order whoever scheduled them and whenever, a cancelled event never
    fires, and the pending count is exact at every point."""

    # Two events due together, the first cancels the second.
    @example([("spawn", 1.0, [("cancel", 1)]), ("spawn", 1.0, []), ("step",)])
    # A callback schedules for its own instant behind an older event due
    # then (LIFO ties would fire 2 before 1), cancels its own same-instant
    # child (3) and itself (0, already out of the queue).
    @example([("spawn", 1.0, [("spawn", 0.0, []), ("spawn", 0.0, []),
                              ("cancel", 3), ("cancel", 0)]),
              ("spawn", 1.0, []), ("run_until", 1.0)])
    # A slice that ends exactly on a tie, then a cancel between slices.
    @example([("spawn", 0.5, []), ("spawn", 0.5, [("spawn", 0.5, [])]),
              ("spawn", 1.0, []), ("run_until", 0.5), ("cancel", 2),
              ("run_until", 0.5)])
    @given(_programs)
    @settings(max_examples=300, deadline=None)
    def test_same_dispatches_same_clock_same_pending_count(self, program):
        sim, model = Simulation(seed=0, tracer=Tracer()), ListSimulation()
        assert play(sim, program) == play(model, program)
        assert sim.pending_events() == 0
        assert sim.dispatched_events() == model.dispatched
        counter = sim.trace.report().counter
        assert counter("sim.events.scheduled") == model.sequence
        assert counter("sim.events.dispatched") == model.dispatched
        assert counter("sim.events.cancelled") == model.cancelled
        assert model.dispatched + model.cancelled == model.sequence


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = Rng(42), Rng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_forked_streams_independent(self):
        root = Rng(42)
        a = root.fork("actor-a")
        before = [a.random() for _ in range(5)]
        # Recreate with an extra fork in between: actor-a's stream is its
        # own, but fork order matters on the root — so fork labels exist
        # to document intent, and identical fork sequences reproduce.
        root2 = Rng(42)
        a2 = root2.fork("actor-a")
        assert [a2.random() for _ in range(5)] == before


class TestDistributions:
    def test_lognormal_quantile_fit(self):
        mu, sigma = lognormal_from_quantiles(median=3.2, q3=5.2)
        rng = Rng(7)
        samples = sorted(rng.lognormal(mu, sigma) for _ in range(20_000))
        med = samples[len(samples) // 2]
        q3 = samples[int(len(samples) * 0.75)]
        assert med == pytest.approx(3.2, rel=0.05)
        assert q3 == pytest.approx(5.2, rel=0.05)

    def test_lognormal_fit_validates_input(self):
        with pytest.raises(ValueError):
            lognormal_from_quantiles(median=5.0, q3=4.0)
        with pytest.raises(ValueError):
            lognormal_from_quantiles(median=0.0, q3=1.0)

    def test_poisson_mean(self):
        rng = Rng(7)
        samples = [rng.poisson(4.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.05)

    def test_poisson_zero_mean(self):
        rng = Rng(7)
        assert rng.poisson(0.0) == 0

    def test_poisson_large_mean_uses_normal_approx(self):
        rng = Rng(7)
        samples = [rng.poisson(1_000.0) for _ in range(200)]
        assert sum(samples) / len(samples) == pytest.approx(1_000.0, rel=0.05)

    def test_bernoulli_probability(self):
        rng = Rng(7)
        hits = sum(rng.bernoulli(0.25) for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.25, abs=0.02)
