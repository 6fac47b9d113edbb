"""The read half of the observability layer: querying and rendering.

A :class:`TraceReport` is an immutable snapshot of everything a
:class:`~repro.observability.trace.Tracer` recorded.  Benchmarks consume
it instead of hand-rolled bookkeeping: the Fig. 2 latency decomposition
is ``durations("packet.block_wait")`` / ``durations("packet.quorum_wait")``,
the Fig. 3 fee clusters are ``histogram("send.fee.priority")`` /
``histogram("send.fee.bundle")``, and a packet's whole life is
``trace(sequence)`` — one span tree from submit to counterparty commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.metrics.stats import Summary, summarize
from repro.metrics.table import format_table
from repro.observability.trace import SpanRecord


@dataclass(frozen=True)
class TraceReport:
    """Everything one traced run recorded, queryable and renderable."""

    spans: list[SpanRecord]
    counters: dict[str, int]
    histograms: dict[str, list[float]]
    gauges: dict[str, list[tuple[float, float]]]

    # -- span queries ----------------------------------------------------

    def span_names(self) -> list[str]:
        return sorted({record.name for record in self.spans})

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [record for record in self.spans if record.name == name]

    def durations(self, name: str) -> list[float]:
        """Completed durations of every span with this name (sim seconds)."""
        return [record.duration for record in self.spans
                if record.name == name and record.end is not None]

    def span_summary(self, name: str) -> Summary:
        return summarize(self.durations(name))

    def trace(self, key: Hashable) -> list[SpanRecord]:
        """All spans correlated under one key, in start order — the
        trace tree of e.g. one packet's life across actors."""
        return sorted(
            (record for record in self.spans if record.key == key),
            key=lambda record: (record.start, record.span_id),
        )

    def children(self, span: SpanRecord) -> list[SpanRecord]:
        return [record for record in self.spans
                if record.parent_id == span.span_id]

    def open_spans(self) -> list[SpanRecord]:
        """Spans never closed (work in flight when the run stopped)."""
        return [record for record in self.spans if record.end is None]

    # -- counters / histograms / gauges ----------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def histogram(self, name: str) -> list[float]:
        return list(self.histograms.get(name, ()))

    def histogram_summary(self, name: str) -> Summary:
        return summarize(self.histograms[name])

    def gauge_series(self, name: str) -> list[tuple[float, float]]:
        return list(self.gauges.get(name, ()))

    def gauge_summary(self, name: str) -> Summary:
        return summarize(value for _, value in self.gauges[name])

    # -- export ----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [record.to_json() for record in self.spans],
            "counters": dict(self.counters),
            "histograms": {name: list(values)
                           for name, values in self.histograms.items()},
            "gauges": {name: [[t, v] for t, v in points]
                       for name, points in self.gauges.items()},
        }

    def dumps(self, indent: Optional[int] = None) -> str:
        """JSON dump (span keys coerced to strings where needed)."""
        return json.dumps(self.to_json(), indent=indent, default=str)

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "TraceReport":
        """Inverse of :meth:`to_json` — how cluster workers ship their
        shard's trace home over the results stream."""
        return cls(
            spans=[SpanRecord.from_json(span)
                   for span in record.get("spans", ())],
            counters={name: int(value)
                      for name, value in record.get("counters", {}).items()},
            histograms={name: [float(v) for v in values]
                        for name, values in record.get("histograms", {}).items()},
            gauges={name: [(float(t), float(v)) for t, v in points]
                    for name, points in record.get("gauges", {}).items()},
        )

    @classmethod
    def merge(cls, reports: Iterable["TraceReport"]) -> "TraceReport":
        """Combine reports from independent runs into one aggregate.

        Counters sum; histogram and gauge series concatenate in report
        order; spans concatenate.  Span ids are only unique *within* a
        source report (each worker process mints its own), so treat the
        merged report as an aggregate-statistics view — per-key trace
        trees should be read from the shard that produced them.
        """
        spans: list[SpanRecord] = []
        counters: dict[str, int] = {}
        histograms: dict[str, list[float]] = {}
        gauges: dict[str, list[tuple[float, float]]] = {}
        for report in reports:
            spans.extend(report.spans)
            for name, value in report.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, values in report.histograms.items():
                histograms.setdefault(name, []).extend(values)
            for name, points in report.gauges.items():
                gauges.setdefault(name, []).extend(points)
        return cls(spans=spans, counters=counters,
                   histograms=histograms, gauges=gauges)

    def render(self) -> str:
        """Pretty tables: spans, counters, histograms, gauges."""
        blocks: list[str] = []
        if self.spans:
            rows = []
            for name in self.span_names():
                done = self.durations(name)
                open_count = sum(1 for r in self.spans
                                 if r.name == name and r.end is None)
                if done:
                    digest = summarize(done)
                    rows.append([name, str(digest.count), str(open_count),
                                 f"{digest.mean:.2f}", f"{digest.median:.2f}",
                                 f"{digest.p95:.2f}", f"{digest.p99:.2f}",
                                 f"{digest.maximum:.2f}"])
                else:
                    rows.append([name, "0", str(open_count),
                                 "-", "-", "-", "-", "-"])
            blocks.append(format_table(
                ["span", "done", "open", "mean (s)", "p50", "p95", "p99", "max"],
                rows, title="Spans (simulated seconds)",
            ))
        if self.counters:
            blocks.append(format_table(
                ["counter", "value"],
                [[name, str(self.counters[name])]
                 for name in sorted(self.counters)],
                title="Counters",
            ))
        if self.histograms:
            rows = []
            for name in sorted(self.histograms):
                digest = self.histogram_summary(name)
                rows.append([name, str(digest.count), f"{digest.mean:.2f}",
                             f"{digest.median:.2f}", f"{digest.p95:.2f}",
                             f"{digest.p99:.2f}", f"{digest.maximum:.2f}"])
            blocks.append(format_table(
                ["histogram", "n", "mean", "p50", "p95", "p99", "max"],
                rows, title="Histograms",
            ))
        if self.gauges:
            rows = []
            for name in sorted(self.gauges):
                digest = self.gauge_summary(name)
                rows.append([name, str(digest.count), f"{digest.mean:.2f}",
                             f"{digest.median:.2f}", f"{digest.p95:.2f}",
                             f"{digest.maximum:.2f}"])
            blocks.append(format_table(
                ["gauge", "samples", "mean", "p50", "p95", "max"],
                rows, title="Gauges",
            ))
        return "\n\n".join(blocks) if blocks else "(trace empty)"
