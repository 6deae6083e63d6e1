"""Summary statistics shared by the ledger (``ledger.py``) and
``compare.py``.  Plain standard library, so ``compare.py`` runs without
the program under test on the path."""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Dict, List, Sequence, Tuple

#: The benchmark definition at the repository root: workloads, metric
#: units, directions and regression bounds.
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "BENCHMARK.json")


def load_spec() -> Dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """The highest percentile that has at least ten samples beyond it,
    as ``(percent, value)``: p64 of 28 jobs, p96 of 300.

    The value is the 11th largest sample.  Below 21 samples that
    percentile would sit at or under the median, so the median is
    returned as p50 instead."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 21:
        return 50, statistics.median(ordered)
    return 100 * (count - 10) // count, ordered[count - 11]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles(values, n=4)``;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the
    median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
