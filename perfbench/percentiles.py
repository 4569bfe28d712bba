"""The tail rule: the highest percentile with at least ten samples beyond it."""

from __future__ import annotations

import math
from fractions import Fraction

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(Fraction(str(p)) * n / 100))  # exact: no 99.9% drift
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least MIN_BEYOND samples beyond it.

    Needs at least 2 * MIN_BEYOND samples, so that the median qualifies.
    """
    ordered = sorted(values)
    best = None
    for p in LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond < MIN_BEYOND:
            break
        best = (p, value, beyond)
    if best is None:
        raise ValueError(f"{len(values)} samples leave no percentile with "
                         f"{MIN_BEYOND} samples beyond it")
    return best
