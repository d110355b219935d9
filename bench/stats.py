"""Percentiles and slice math.

A run cuts each workload's request sequence into slices; every metric is
computed per slice and reported as the median over slices, with the
interquartile range beside it as the run's own noise estimate.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "summarize", "slice_metrics"]

#: A percentile is reported only with at least this many samples beyond it
#: (so p95 needs 200 samples).
MIN_BEYOND = 10


def percentile(values: Sequence[float], fraction: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile; refuses a sample too small to support it.

    Raises :class:`ValueError` when fewer than ``min_beyond`` samples lie
    beyond the percentile's rank.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{fraction * 100:g} of {len(ordered)} samples leaves "
            f"{len(ordered) - rank} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartile spread and extremes of per-slice values."""
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": median,
        "iqr": q3 - q1,
        "min": min(values),
        "max": max(values),
    }


def slice_metrics(
    wall_s: float,
    completed: int,
    read_latencies_s: Sequence[float],
    update_latencies_s: Sequence[float],
    min_beyond: int = MIN_BEYOND,
) -> Dict[str, Optional[float]]:
    """The end-to-end metrics of one slice (latencies in, milliseconds out).

    ``latency_p95_ms`` raises through :func:`percentile` when the slice has
    too few reads; ``update_p50_ms`` is ``None`` for a slice without updates.
    """
    if wall_s <= 0:
        raise ValueError(f"slice wall time must be positive, got {wall_s}")
    reads_ms: List[float] = [value * 1000.0 for value in read_latencies_s]
    updates_ms = [value * 1000.0 for value in update_latencies_s]
    return {
        "throughput_rps": completed / wall_s,
        "latency_p50_ms": statistics.median(reads_ms),
        "latency_p95_ms": percentile(reads_ms, 0.95, min_beyond),
        "update_p50_ms": statistics.median(updates_ms) if updates_ms else None,
    }
