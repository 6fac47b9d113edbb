"""Summary statistics in the exact shape Table I reports.

Quantiles use the same convention as the paper's table (linear
interpolation between order statistics); ``Summary`` carries min / Q1 /
median / Q3 / max / mean / standard deviation so experiment output can
be compared to the published rows column by column, plus the p95 / p99
tail the observability layer and the ``BENCH_*`` records report — the
one digest of a series in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile over pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


@dataclass(frozen=True)
class Summary:
    """The Table I statistics block."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float
    p95: float
    p99: float

    def row(self, digits: int = 1) -> list[str]:
        """Formatted [min, Q1, med, Q3, max, mean, std] cells."""
        return [
            f"{value:.{digits}f}"
            for value in (self.minimum, self.q1, self.median,
                          self.q3, self.maximum, self.mean, self.std)
        ]

    def to_json(self) -> dict[str, float]:
        """The six-key tail digest ``BENCH_*`` records embed."""
        return {"count": self.count, "p50": self.median, "p95": self.p95,
                "p99": self.p99, "mean": self.mean, "max": self.maximum}


def summarize(values: Iterable[float]) -> Summary:
    """Full summary of a sample (population standard deviation, like a
    complete month of observations)."""
    data = sorted(values)
    if not data:
        raise ValueError("summarize needs at least one value")
    count = len(data)
    mean = sum(data) / count
    variance = sum((value - mean) ** 2 for value in data) / count
    return Summary(
        count=count,
        minimum=data[0],
        q1=percentile(data, 0.25),
        median=percentile(data, 0.5),
        q3=percentile(data, 0.75),
        maximum=data[-1],
        mean=mean,
        std=math.sqrt(variance),
        p95=percentile(data, 0.95),
        p99=percentile(data, 0.99),
    )


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Share of values strictly below ``threshold`` (CDF point)."""
    if not values:
        raise ValueError("fraction_below of empty data")
    return sum(1 for value in values if value < threshold) / len(values)


def correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation (for §V-C's cost↔latency check)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("correlation needs two equal-length samples")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
