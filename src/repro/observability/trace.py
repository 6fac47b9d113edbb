"""The recording half of the observability layer.

Spans measure *simulated* time (the kernel clock), not wall-clock: a
span opened when a packet's transaction is submitted and closed when the
counterparty commits it measures exactly the latency Fig. 2 plots.
Because actors live in different event-loop callbacks, spans can be
carried two ways:

* as handles — ``span = trace.span("host.submit", key=tx_id)`` then
  ``span.end()`` later (also usable as a context manager for intervals
  that open and close inside one callback);
* keyed — ``trace.begin("guest.block", key=height)`` in one callback and
  ``trace.finish("guest.block", key=height)`` in another, when no object
  conveniently crosses the gap.  ``finish`` on a key that was never
  begun is a silent no-op, so late enabling or missed starts never
  crash a run.

Counters are monotonic, histograms keep the raw sample (quantiles are
computed at report time with the Table-I percentile convention), gauges
keep ``(time, value)`` pairs for queue-depth-style series.
"""

from __future__ import annotations

from repro import ids
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

_span_ids = ids.mint("observability.span")


@dataclass
class SpanRecord:
    """One recorded interval of simulated time."""

    span_id: int
    name: str
    key: Optional[Hashable]
    actor: Optional[str]
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "key": self.key,
            "actor": self.actor,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_json` (keys that were JSON-coerced to
        strings stay strings; aggregate queries don't mind)."""
        return cls(
            span_id=record["span_id"],
            name=record["name"],
            key=record.get("key"),
            actor=record.get("actor"),
            start=record["start"],
            end=record.get("end"),
            parent_id=record.get("parent_id"),
            attrs=dict(record.get("attrs", {})),
        )


class Span:
    """Handle over an open :class:`SpanRecord`; ``end()`` closes it."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def end(self, **attrs: Any) -> None:
        if self.record.end is None:
            self.record.end = self._tracer.now()
            if attrs:
                self.record.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end()


class _NullSpan:
    """The span every :class:`NullTracer` probe returns."""

    __slots__ = ()

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every probe is a no-op method call.

    This is the default on every :class:`~repro.sim.kernel.Simulation`,
    which is what keeps the instrumented hot paths within the <5 %
    overhead budget when nobody asked for traces.
    """

    enabled = False

    def bind(self, clock: Callable[[], float]) -> None:
        pass

    def span(self, name: str, key: Optional[Hashable] = None,
             actor: Optional[str] = None, parent: Optional[Span] = None,
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, key: Optional[Hashable] = None,
              actor: Optional[str] = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, name: str, key: Optional[Hashable] = None,
               **attrs: Any) -> None:
        pass

    def count(self, name: str, value: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def report(self) -> "TraceReport":
        from repro.observability.report import TraceReport
        return TraceReport(spans=[], counters={}, histograms={}, gauges={})


def _unbound_clock() -> float:
    return 0.0


#: Shared disabled tracer (stateless, so one instance serves everyone).
NULL_TRACER = NullTracer()


class Tracer:
    """Tracing enabled: records spans/counters/histograms/gauges.

    A tracer is normally created by passing ``tracer=Tracer()`` to the
    simulation kernel (or ``tracing=True`` to a deployment), which binds
    the simulated clock.  A free-standing tracer reads time 0.0 until
    bound — convenient for unit tests of the recording machinery.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or _unbound_clock
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, list[float]] = {}
        self.gauges: dict[str, list[tuple[float, float]]] = {}
        self._open: dict[tuple[str, Optional[Hashable]], SpanRecord] = {}

    def bind(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock (done by the kernel)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- spans -----------------------------------------------------------

    def span(self, name: str, key: Optional[Hashable] = None,
             actor: Optional[str] = None, parent: Optional[Span] = None,
             **attrs: Any) -> Span:
        """Open a span now; close it with ``.end()`` or a ``with`` block."""
        record = SpanRecord(
            span_id=next(_span_ids), name=name, key=key, actor=actor,
            start=self._clock(),
            parent_id=parent.record.span_id if isinstance(parent, Span) else None,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        return Span(self, record)

    def begin(self, name: str, key: Optional[Hashable] = None,
              actor: Optional[str] = None, **attrs: Any) -> Span:
        """Open a keyed span retrievable by ``finish(name, key)``.

        Re-beginning an already open ``(name, key)`` abandons the first
        interval (it stays in the record, open) and starts a fresh one.
        """
        span = self.span(name, key=key, actor=actor, **attrs)
        self._open[(name, key)] = span.record
        return span

    def finish(self, name: str, key: Optional[Hashable] = None,
               **attrs: Any) -> None:
        """Close the open span under ``(name, key)``; no-op if absent."""
        record = self._open.pop((name, key), None)
        if record is not None and record.end is None:
            record.end = self._clock()
            if attrs:
                record.attrs.update(attrs)

    # -- counters / histograms / gauges ----------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, []).append(value)

    def gauge(self, name: str, value: float) -> None:
        self.gauges.setdefault(name, []).append((self._clock(), value))

    # -- export ----------------------------------------------------------

    def report(self) -> "TraceReport":
        from repro.observability.report import TraceReport
        return TraceReport(
            spans=list(self.spans),
            counters=dict(self.counters),
            histograms={name: list(values) for name, values in self.histograms.items()},
            gauges={name: list(points) for name, points in self.gauges.items()},
        )
