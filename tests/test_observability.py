"""Unit tests for the observability layer (docs/OBSERVABILITY.md).

Covers the recording half (Tracer / NullTracer), the read half
(TraceReport), and the kernel/host integration points.
"""

import json

import pytest

from repro.metrics.stats import Summary, summarize
from repro.observability import NULL_TRACER, NullTracer, TraceReport, Tracer
from repro.sim.kernel import Simulation


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clocked():
    clock = FakeClock()
    tracer = Tracer()
    tracer.bind(clock)
    return clock, tracer


class TestSpans:
    def test_handle_span_measures_clock_interval(self, clocked):
        clock, tracer = clocked
        clock.t = 2.0
        span = tracer.span("work", actor="tester")
        clock.t = 5.5
        span.end()
        (record,) = tracer.spans
        assert record.name == "work"
        assert record.actor == "tester"
        assert record.start == 2.0
        assert record.end == 5.5
        assert record.duration == 3.5

    def test_span_as_context_manager(self, clocked):
        clock, tracer = clocked
        with tracer.span("block"):
            clock.t = 1.0
        assert tracer.spans[0].duration == 1.0

    def test_double_end_keeps_first_close(self, clocked):
        clock, tracer = clocked
        span = tracer.span("once")
        clock.t = 1.0
        span.end()
        clock.t = 9.0
        span.end()
        assert tracer.spans[0].end == 1.0

    def test_keyed_begin_finish_across_callbacks(self, clocked):
        clock, tracer = clocked
        tracer.begin("packet.block_wait", key=7)
        clock.t = 3.2
        tracer.finish("packet.block_wait", key=7, height=12)
        (record,) = tracer.spans
        assert record.key == 7
        assert record.duration == 3.2
        assert record.attrs["height"] == 12

    def test_finish_unknown_key_is_silent_noop(self, clocked):
        _, tracer = clocked
        tracer.finish("never.begun", key="ghost")
        assert tracer.spans == []

    def test_same_name_different_keys_are_independent(self, clocked):
        clock, tracer = clocked
        tracer.begin("wait", key="a")
        clock.t = 1.0
        tracer.begin("wait", key="b")
        clock.t = 4.0
        tracer.finish("wait", key="a")
        clock.t = 6.0
        tracer.finish("wait", key="b")
        by_key = {record.key: record.duration for record in tracer.spans}
        assert by_key == {"a": 4.0, "b": 5.0}

    def test_rebegin_abandons_open_interval(self, clocked):
        clock, tracer = clocked
        tracer.begin("retry", key=1)
        clock.t = 2.0
        tracer.begin("retry", key=1)
        clock.t = 3.0
        tracer.finish("retry", key=1)
        first, second = tracer.spans
        assert first.end is None           # abandoned, visible as open
        assert second.duration == 1.0

    def test_parent_links_build_a_tree(self, clocked):
        _, tracer = clocked
        parent = tracer.span("outer")
        child = tracer.span("inner", parent=parent)
        report = tracer.report()
        assert report.children(parent.record) == [child.record]
        assert child.record.parent_id == parent.record.span_id


class TestMetrics:
    def test_counters_are_monotonic(self, clocked):
        _, tracer = clocked
        tracer.count("hits")
        tracer.count("hits", 4)
        assert tracer.counters["hits"] == 5

    def test_histograms_keep_raw_samples(self, clocked):
        _, tracer = clocked
        for value in (3.0, 1.0, 2.0):
            tracer.observe("lat", value)
        assert tracer.histograms["lat"] == [3.0, 1.0, 2.0]

    def test_gauges_record_time_value_pairs(self, clocked):
        clock, tracer = clocked
        tracer.gauge("depth", 10)
        clock.t = 4.0
        tracer.gauge("depth", 3)
        assert tracer.gauges["depth"] == [(0.0, 10), (4.0, 3)]


class TestNullTracer:
    def test_all_probes_are_noops(self):
        tracer = NullTracer()
        span = tracer.span("x", key=1, actor="a")
        span.end(attr=1)
        with tracer.begin("y", key=2):
            pass
        tracer.finish("y", key=2)
        tracer.count("c")
        tracer.observe("h", 1.0)
        tracer.gauge("g", 2.0)
        report = tracer.report()
        assert report.spans == [] and report.counters == {}
        assert report.render() == "(trace empty)"

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_simulation_defaults_to_null_tracer(self):
        assert Simulation(seed=1).trace is NULL_TRACER


class TestTraceReport:
    def _report(self):
        clock = FakeClock()
        tracer = Tracer()
        tracer.bind(clock)
        for sequence, (start, mid, end) in enumerate(
            [(0.0, 1.0, 3.0), (2.0, 4.0, 8.0), (5.0, 5.5, 7.0)]
        ):
            clock.t = start
            tracer.begin("packet.block_wait", key=sequence)
            clock.t = mid
            tracer.finish("packet.block_wait", key=sequence)
            tracer.begin("packet.quorum_wait", key=sequence)
            clock.t = end
            tracer.finish("packet.quorum_wait", key=sequence)
        clock.t = 9.0
        tracer.begin("packet.block_wait", key=99)   # left open
        tracer.count("guest.packets.sent", 3)
        for fee in (10.0, 20.0, 30.0, 40.0):
            tracer.observe("send.fee.bundle", fee)
        tracer.gauge("host.mempool.depth", 5)
        return tracer.report()

    def test_durations_exclude_open_spans(self):
        report = self._report()
        assert report.durations("packet.block_wait") == [1.0, 2.0, 0.5]
        assert len(report.open_spans()) == 1

    def test_span_summary_digest(self):
        report = self._report()
        digest = report.span_summary("packet.quorum_wait")
        assert digest.count == 3
        assert digest.median == 2.0
        assert digest.maximum == 4.0
        # One digest type library-wide: the Table I block plus the tail.
        assert isinstance(digest, Summary)
        assert digest == summarize([2.0, 4.0, 1.5])

    def test_trace_groups_by_key_in_start_order(self):
        report = self._report()
        trace = report.trace(1)
        assert [record.name for record in trace] == [
            "packet.block_wait", "packet.quorum_wait",
        ]
        assert trace[0].start <= trace[1].start

    def test_counter_and_histogram_queries(self):
        report = self._report()
        assert report.counter("guest.packets.sent") == 3
        assert report.counter("missing") == 0
        assert report.counter("missing", default=-1) == -1
        assert report.histogram_summary("send.fee.bundle").mean == 25.0
        assert report.histogram("missing") == []

    def test_summary_json_is_the_six_key_record_shape(self):
        """What ``BENCH_throughput`` / ``BENCH_chaos`` embed, key for key."""
        digest = self._report().histogram_summary("send.fee.bundle").to_json()
        assert list(digest) == ["count", "p50", "p95", "p99", "mean", "max"]
        assert digest == pytest.approx({"count": 4, "p50": 25.0, "p95": 38.5,
                                        "p99": 39.7, "mean": 25.0, "max": 40.0})

    def test_gauge_queries(self):
        report = self._report()
        assert report.gauge_series("host.mempool.depth") == [(9.0, 5)]
        assert report.gauge_summary("host.mempool.depth").count == 1

    def test_span_names_sorted_unique(self):
        report = self._report()
        assert report.span_names() == [
            "packet.block_wait", "packet.quorum_wait",
        ]

    def test_json_round_trip(self):
        report = self._report()
        parsed = json.loads(report.dumps(indent=2))
        assert parsed["counters"]["guest.packets.sent"] == 3
        assert len(parsed["spans"]) == len(report.spans)
        assert parsed["histograms"]["send.fee.bundle"] == [10.0, 20.0, 30.0, 40.0]

    def test_render_contains_all_sections(self):
        rendered = self._report().render()
        for heading in ("Spans", "Counters", "Histograms", "Gauges"):
            assert heading in rendered
        assert "packet.block_wait" in rendered

    def test_empty_digest_raises(self):
        report = TraceReport(spans=[], counters={}, histograms={}, gauges={})
        with pytest.raises(ValueError, match="at least one value"):
            report.span_summary("anything")


class TestKernelIntegration:
    def test_event_counters(self):
        sim = Simulation(seed=1, tracer=Tracer())
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        sim.run()
        report = sim.trace.report()
        assert report.counter("sim.events.scheduled") == 2
        assert report.counter("sim.events.dispatched") == 1
        assert report.counter("sim.events.cancelled") == 1

    def test_tracer_reads_simulated_clock(self):
        sim = Simulation(seed=1, tracer=Tracer())
        spans = []

        def open_span():
            spans.append(sim.trace.span("interval"))

        def close_span():
            spans[0].end()

        sim.schedule(1.0, open_span)
        sim.schedule(4.5, close_span)
        sim.run()
        assert sim.trace.spans[0].start == 1.0
        assert sim.trace.spans[0].duration == 3.5


class TestDeploymentIntegration:
    """End-to-end: a traced deployment records the packet trace tree."""

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.deployment import Deployment, DeploymentConfig
        dep = Deployment(DeploymentConfig(seed=11, tracing=True))
        guest_chan, _ = dep.establish_link()
        dep.contract.bank.mint("alice", "GUEST", 10 ** 9)
        payload = dep.contract.transfer.make_payload(
            guest_chan, "GUEST", 10, "alice", "bob",
        )
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(600.0)
        return dep, dep.trace_report()

    def test_packet_phases_recorded(self, traced):
        _, report = traced
        for name in ("packet.block_wait", "packet.quorum_wait", "packet.relay"):
            durations = report.durations(name)
            assert durations, f"no completed {name} span"
            assert all(duration >= 0.0 for duration in durations)

    def test_packet_trace_tree_orders_phases(self, traced):
        _, report = traced
        sequence = report.spans_named("packet.block_wait")[0].key
        trace = report.trace(sequence)
        names = [record.name for record in trace]
        assert names.index("packet.block_wait") < names.index("packet.quorum_wait")
        assert names.index("packet.quorum_wait") < names.index("packet.relay")

    def test_host_and_guest_counters(self, traced):
        _, report = traced
        assert report.counter("guest.packets.sent") >= 1
        assert report.counter("relay.packets.to_counterparty") >= 1
        assert report.counter("guest.blocks.finalised") >= 1
        assert report.counter("host.tx.executed") > 0
        assert report.counter("sim.events.dispatched") > 0

    def test_host_histograms_and_gauges(self, traced):
        _, report = traced
        assert report.histogram_summary("host.fee_paid").count > 0
        assert report.histogram_summary("host.cu_consumed").count > 0
        assert report.gauge_series("host.mempool.depth")

    def test_untraced_deployment_records_nothing(self):
        from repro.deployment import Deployment, DeploymentConfig
        dep = Deployment(DeploymentConfig(seed=11, tracing=False))
        dep.run_for(10.0)
        assert dep.sim.trace is NULL_TRACER
        report = dep.trace_report()
        assert report.spans == [] and report.counters == {}
