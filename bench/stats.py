"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile that has at least ``min_beyond`` samples above.

    A tail percentile read off too few samples is mostly noise, so a request
    that leaves fewer than ``min_beyond`` samples beyond the rank raises
    instead of returning a number.
    """
    if not 0 < pct < 100:
        raise ValueError("percentile must lie in (0, 100)")
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"p{pct:g} of {n} samples leaves {max(n - rank, 0)} "
                         f"beyond it; need {min_beyond}")
    return sorted(values)[rank - 1]

