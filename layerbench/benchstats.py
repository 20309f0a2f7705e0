"""The benchmark's own arithmetic: percentiles, open-loop latency, spread.

Everything here is pure and has tests in ``test_layerbench.py``; the
workload modules only call into it.
"""

import math
import statistics
from fractions import Fraction

# Percentiles the benchmark may report, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A percentile is reportable only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(count, pct):
    """1-based nearest rank of the pct percentile, in exact arithmetic."""
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % (pct,))
    return max(math.ceil(Fraction(str(pct)) * count / 100), 1)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with >= pct% at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count, pct):
    """How many of *count* samples lie strictly above the pct percentile."""
    return count - _rank(count, pct)


def highest_supported_percentile(count):
    """The highest of ``PERCENTILES`` with at least ``MIN_BEYOND`` samples
    beyond it.

    Returns None when even the lowest one is unsupported.
    """
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def open_loop_latencies(due_times, reply_times):
    """Latency of each request from when it was *due*, not when it was sent.

    A request that failed (reply time None) counts as over any limit, so it
    becomes ``math.inf``.  Timing from the due time charges a stall to every
    request scheduled behind it, which a send-time clock would hide.
    """
    if len(due_times) != len(reply_times):
        raise ValueError("due and reply lists differ in length")
    return [math.inf if reply is None else reply - due
            for due, reply in zip(due_times, reply_times)]


def on_time_share(latencies, deadline):
    """Share of *latencies* at or under *deadline*.

    A failed request (``math.inf``, see ``open_loop_latencies``) is late.
    """
    if not latencies:
        raise ValueError("on-time share of no latencies")
    return sum(1 for latency in latencies
               if latency <= deadline) / len(latencies)


def quartile_spread(values):
    """(Q3 - Q1) / median: the run-to-run spread of a metric over seeds."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
