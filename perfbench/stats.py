"""Percentiles under the benchmark's sample-count rule, and medians.

A tail percentile stands only when at least :data:`MIN_BEYOND` samples lie
beyond it.  When the count cannot support p99, the highest percentile it
can support is reported instead, under that percentile's own name
(``p95``, ``p90`` ...), so a thin sample never passes for a p99.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile for it to stand.
MIN_BEYOND = 10
#: Tail percentiles tried, highest first.
TAIL_PERCENTILES: Tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def supported_tail(count: int) -> Optional[float]:
    """The highest tail percentile ``count`` samples support, or ``None``."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def pct_label(pct: float) -> str:
    """``99.0`` -> ``"p99"``."""
    return f"p{pct:g}"


def latency_block(values_ms: Sequence[float]) -> Dict[str, object]:
    """Median, p90 and the highest supported tail of a latency sample.

    Returns ``{"count", "p50", "p90", "tail_label", "tail"}``; a value is
    ``None`` when the sample cannot support it.
    """
    ordered = sorted(values_ms)
    tail = supported_tail(len(ordered))

    def supported(pct: float) -> Optional[float]:
        if len(ordered) * (100.0 - pct) / 100.0 < MIN_BEYOND:
            return None
        return percentile(ordered, pct)

    return {
        "count": len(ordered),
        "p50": supported(50.0),
        "p90": supported(90.0),
        "tail_label": pct_label(tail) if tail is not None else None,
        "tail": percentile(ordered, tail) if tail is not None else None,
    }


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def typical_mean(per_round: Sequence[Sequence[float]]) -> Optional[float]:
    """Mean over operations of each operation's median across rounds.

    Every round replays the same operations in the same order, so
    position *i* of every round's sample is one operation.  Taking each
    operation's median first drops a stall of the host that hit it in a
    minority of the rounds; the mean then weights every operation once,
    tails included.  ``None`` for an empty sample.
    """
    rounds = [sample for sample in per_round if sample]
    if not rounds:
        return None
    if len({len(sample) for sample in rounds}) != 1:
        raise ValueError("rounds of one run timed different operations")
    columns = list(zip(*rounds))
    return sum(statistics.median(column) for column in columns) / len(columns)


def flatten(groups: Sequence[Sequence[float]]) -> List[float]:
    """Concatenate per-round samples into one pooled sample."""
    return [value for group in groups for value in group]
