"""Arithmetic shared by every workload: percentiles and within-limit shares.

A failed operation (timed out, refused, dropped) is recorded as ``FAILED``
(positive infinity), so it sorts after every completed one and misses every
latency limit.  Percentiles use the nearest-rank definition on the sorted
values; a percentile that lands on a failure reads as the workload's deadline,
the largest latency the workload can observe.
"""

from __future__ import annotations

import math
from typing import Sequence

FAILED = math.inf


def percentile(values: Sequence[float], q: float, ceiling: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100); failures read as `ceiling`."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    value = ordered[rank - 1]
    return ceiling if value > ceiling else value


def within_pct(values: Sequence[float], limit: float) -> float:
    """Share, in percent of all operations, of those completed within `limit`."""
    if not values:
        raise ValueError("share of an empty sample")
    return 100.0 * sum(1 for v in values if v <= limit) / len(values)
