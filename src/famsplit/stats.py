"""Exact Wilcoxon signed-rank comparison of paired per-split metrics.

The p-values are exact: a subset-sum dynamic program counts how many of the
2^n sign assignments of the ranks (n = pairs with nonzero difference) give
each positive-rank sum, in O(n * rank total) steps without listing the
assignments. Zero differences are dropped (classic policy) and tied absolute
differences receive midranks, counted in half-rank units.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from famsplit.errors import ComparisonError

EXACT_LIMIT = 25  # refuse more nonzero differences; the counting DP itself has no such limit


@dataclass(frozen=True)
class WilcoxonResult:
    # Field order is the compare report's key order.
    n_effective: int
    w_statistic: float
    p_two_sided: float
    p_one_sided: float


def _midranks(magnitudes: Sequence[float]) -> list[float]:
    order = sorted(range(len(magnitudes)), key=lambda i: magnitudes[i])
    ranks = [0.0] * len(magnitudes)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        midrank = (i + j + 2) / 2  # average of 1-based positions i+1 .. j+1
        for pos in range(i, j + 1):
            ranks[order[pos]] = midrank
        i = j + 1
    return ranks


def _sum_distribution(scaled_ranks: list[int]) -> list[int]:
    # counts[s] = number of sign assignments whose positive-rank sum is s
    total = sum(scaled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in scaled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    return counts


def wilcoxon_exact(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Exact signed-rank test on paired vectors; one-sided favors a > b.

    W is the smaller of the positive- and negative-rank sums. The two-sided
    p is P(min(S+, S-) <= W) under random signs; the one-sided p is
    P(S+ >= observed positive sum).
    """
    if len(a) != len(b):
        raise ComparisonError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise ComparisonError("empty metric vectors")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        raise ComparisonError("degenerate comparison: all paired differences are zero")
    if n > EXACT_LIMIT:
        raise ComparisonError(
            f"{n} nonzero differences exceed the exact-test cap of {EXACT_LIMIT}"
        )
    ranks = _midranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    w = min(w_plus, w_minus)

    scaled = [round(2 * r) for r in ranks]
    total = sum(scaled)
    counts = _sum_distribution(scaled)
    assignments = 2**n
    s_plus = round(2 * w_plus)
    w_scaled = round(2 * w)
    one_sided = sum(counts[s] for s in range(s_plus, total + 1))
    two_sided = sum(counts[s] for s in range(total + 1) if min(s, total - s) <= w_scaled)
    return WilcoxonResult(
        n_effective=n,
        w_statistic=w,
        p_two_sided=two_sided / assignments,
        p_one_sided=one_sided / assignments,
    )


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Population-std summary of a metric vector."""
    if not values:
        raise ComparisonError("cannot summarize an empty vector")
    return {
        "mean": statistics.fmean(values),
        "std": statistics.pstdev(values),
        "min": min(values),
        "max": max(values),
    }


def load_metric_vector(path: str | Path, metric: str) -> list[float]:
    """Extract one metric vector from a per-split report file.

    Accepts a JSON array of numbers, a JSON array of report objects carrying
    the metric field, or an object with a "splits" or "per_split" array.
    Every value must be a finite JSON number; true/false do not count.
    """
    # Integers parse as floats, so one too large for a float reads as inf.
    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    if isinstance(doc, dict):
        items = doc.get("splits", doc.get("per_split"))
        if items is None:
            raise ComparisonError(f"{path}: no 'splits' or 'per_split' array")
    else:
        items = doc
    if not isinstance(items, list) or not items:
        raise ComparisonError(f"{path}: expected a non-empty array of results")
    values = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            if metric not in item:
                raise ComparisonError(f"{path}: entry {i} has no metric {metric!r}")
            value, what = item[metric], f"metric {metric!r}"
        else:
            value, what = item, "value"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ComparisonError(f"{path}: entry {i} {what} is not a number: {value!r}")
        if not math.isfinite(value):
            raise ComparisonError(f"{path}: entry {i} {what} is not finite: {value!r}")
        values.append(float(value))
    return values
