"""Small statistics helpers: the percentile rule and open-loop timing."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``q``."""
    n = MIN_BEYOND
    while n - math.ceil(q / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, with ten samples beyond it.

    The rank is ``ceil(q/100 * n)``; the ``n - rank`` samples above it
    must number at least :data:`MIN_BEYOND`, or the percentile says too
    little about the tail and ``ValueError`` is raised.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    return sorted(samples)[rank - 1]


def open_loop_times(
    due: Sequence[float],
    sent: Sequence[float],
    done: Sequence[float | None],
    miss: float,
) -> tuple[list[float], list[float]]:
    """Latency from each request's due time, and how late it was sent.

    ``done`` is ``None`` for a request that failed; its latency is
    ``miss``, so a failure counts as missing any limit below ``miss``.
    A request sent before it was due would be a generator bug.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done differ in length")
    latency, lag = [], []
    for d, s, e in zip(due, sent, done):
        if s < d:
            raise ValueError(f"request sent {d - s:.6f}s before it was due")
        lag.append(s - d)
        latency.append(miss if e is None else e - d)
    return latency, lag
