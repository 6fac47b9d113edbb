#!/usr/bin/env python3
"""Compare two commits' ledgers, one row per (workload, end-to-end metric).

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json,A2.json,...  B1.json,B2.json,...

Each argument is one or more records written by ``bench/run.py --out``
(comma-separated), A the parent and B the change, the i-th of each side
forming a pair.  Verdicts follow the choosing-metrics rules against the
bounds in ``BENCHMARK.json``:

* **regressed** - B's median is worse than A's by more than the bound;
* **unresolved** - A's own inter-quartile spread is wider than the
  bound, and B's runs do not all read better than all of A's: the
  benchmark cannot tell;
* **improved** - at least ten pairs, B wins at least nine tenths of them
  (ties count for neither), and the medians differ by more than A's
  inter-quartile spread;
* **unchanged** - anything else.

The failed-operation share of each workload is printed below the table;
a gain does not count when more operations fail than at the parent.
Exits 1 if any row regressed, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(argument: str) -> list[dict]:
    records = []
    for path in argument.split(","):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if < 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The row's verdict and by what share B's median is worse (+) or
    better (-) than A's."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread(a) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    quartiles = statistics.quantiles(a, n=4) if len(a) >= 2 else None
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and quartiles is not None
            and abs(median_b - median_a) > quartiles[2] - quartiles[0]):
        return "improved", worse_by
    return "unchanged", worse_by


def compare(side_a: list[dict], side_b: list[dict], catalogue: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':14s} {'metric':22s} {'unit':9s} {'A median':>14s} "
             f"{'B median':>14s} {'worse by':>9s} {'bound':>6s} {'A spread':>9s}  verdict"]
    regressed = False
    workloads = [entry["name"] for entry in catalogue["workloads"]
                 if all(entry["name"] in record["workloads"]
                        for record in side_a + side_b)]
    for workload in workloads:
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            a = [r["workloads"][workload]["end_to_end"][name]["value"] for r in side_a]
            b = [r["workloads"][workload]["end_to_end"][name]["value"] for r in side_b]
            outcome, worse_by = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            lines.append(
                f"{workload:14s} {name:22s} {metric['unit']:9s} "
                f"{statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                f"{worse_by:+9.2%} {metric['bound']:6.0%} {spread(a):9.2%}  {outcome}")
    lines.append("")
    for workload in workloads:
        shares = []
        for side in (side_a, side_b):
            attempted = sum(r["workloads"][workload]["attempted"] for r in side)
            failed = sum(r["workloads"][workload]["failed"] for r in side)
            shares.append(f"{failed}/{attempted} ({failed / attempted:.4%})")
        lines.append(f"{workload:14s} failed operations: A {shares[0]}  B {shares[1]}")
    return lines, regressed


def main() -> None:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        catalogue = json.load(handle)
    lines, regressed = compare(load_side(sys.argv[1]), load_side(sys.argv[2]),
                               catalogue)
    print("\n".join(lines))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
