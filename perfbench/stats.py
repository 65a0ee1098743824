"""Order statistics and open-loop accounting used by the benchmark.

Kept free of any ``repro`` import so the self-tests run without the
package.
"""

import math

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest rank returns an observed value, so a failed job recorded as
    ``math.inf`` surfaces as ``inf`` once it reaches the percentile,
    never as an interpolated finite number.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    """The plain median (mean of the two middle values when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def samples_beyond(count, q):
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return count - math.ceil(q / 100.0 * count)


def jobs_for_percentile(q, min_beyond=MIN_BEYOND):
    """The smallest sample count whose ``q``-th percentile has
    ``min_beyond`` samples beyond it."""
    count = 1
    while samples_beyond(count, q) < min_beyond:
        count += 1
    return count


def due_times(start, rate, count):
    """Open-loop schedule: job ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + index / rate for index in range(count)]


def open_loop_latencies(due, finished, failed_latency=math.inf):
    """Per-job latency measured from when each job was *due*.

    ``finished[i]`` is the completion time of job ``i`` or ``None`` when
    it failed or never completed; such jobs get ``failed_latency`` so
    they count as missing any latency limit.
    """
    if len(due) != len(finished):
        raise ValueError("due and finished must have the same length")
    return [
        failed_latency if end is None else end - start
        for start, end in zip(due, finished)
    ]


def generator_lag(due, sent):
    """How late the generator sent each job (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must have the same length")
    return [max(0.0, actual - planned) for planned, actual in zip(due, sent)]
