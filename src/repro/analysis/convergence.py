"""Convergence experiments: sampled estimates vs. exact counts (Figure 3).

The paper samples every 10^3..10^5 fetched instructions from traces of
10^8..10^9 instructions and plots, per static instruction, the ratio of
the estimated to the actual count for two properties (retired, D-cache
miss) against the number of samples.  The estimates converge inside the
``1 +- 1/sqrt(k)`` envelope.

Scaling: convergence depends only on E[k] (expected matching samples per
instruction), so we shrink both N and S proportionally — see DESIGN.md.
"""

from dataclasses import dataclass
from typing import List

from repro.events import Event
from repro.analysis.estimators import (ratio_within_envelope,
                                       relative_error_envelope)


@dataclass(frozen=True)
class ConvergencePoint:
    """One static instruction's estimate for one property."""

    pc: int
    matching_samples: int  # k: samples with the property
    total_samples: int  # all samples of this PC
    estimate: float  # k * S
    actual: int  # simulator ground truth

    @property
    def ratio(self):
        if self.actual == 0:
            return None
        return self.estimate / self.actual

    @property
    def within_envelope(self):
        ratio = self.ratio
        if ratio is None:
            return False
        half = relative_error_envelope(self.matching_samples)
        return 1.0 - half <= ratio <= 1.0 + half


# Property extractors: (per-PC profile -> k, per-PC truth -> actual).
def retired_property(profile, truth):
    return profile.event_count(Event.RETIRED), truth.retired


def dcache_miss_property(profile, truth):
    return (profile.event_count(Event.DCACHE_MISS),
            truth.count_event(Event.DCACHE_MISS))


def effective_interval(total_fetched, total_samples):
    """Measured average sampling interval S.

    The section 5.1 estimator is defined in terms of the *average*
    sampling rate.  The configured interval understates it whenever the
    hardware drops selections that land while the Profile Registers are
    busy, so profiling software calibrates S from an ordinary aggregate
    fetched-instruction counter divided by the number of samples it
    collected — the same self-calibration DCPI applies.
    """
    if total_samples <= 0:
        raise ValueError("no samples collected")
    return total_fetched / total_samples


def convergence_points(database, truth_collector, mean_interval,
                       property_fn=retired_property,
                       min_actual=1) -> List[ConvergencePoint]:
    """Per-PC (estimate, actual) comparison for one property.

    Only PCs with ground truth >= *min_actual* matching instances are
    reported (a ratio against zero is undefined).  *truth_collector* may
    be a GroundTruthCollector or any plain ``pc -> PcTruth`` mapping
    (e.g. ``FunctionalRun.truth``).
    """
    truth_map = getattr(truth_collector, "per_pc", truth_collector)
    points = []
    for pc, profile in database.per_pc.items():
        truth = truth_map.get(pc)
        if truth is None:
            continue
        k, actual = property_fn(profile, truth)
        if actual < min_actual:
            continue
        points.append(ConvergencePoint(
            pc=pc,
            matching_samples=k,
            total_samples=profile.samples,
            estimate=k * mean_interval,
            actual=actual,
        ))
    return points


def envelope_fraction(points):
    """Fraction of points inside the one-sigma envelope (expect ~2/3)."""
    return ratio_within_envelope(
        (p.estimate, p.actual, p.matching_samples) for p in points)


def summarize(points, buckets=(1, 4, 16, 64, 256, 1024)):
    """Envelope fraction and mean |ratio-1| per sample-count bucket.

    Reproduces the visual content of Figure 3 as a table: accuracy
    improves like 1/sqrt(k) as the per-instruction sample count grows.
    """
    rows = []
    for low, high in zip(buckets, list(buckets[1:]) + [float("inf")]):
        bucket = [p for p in points
                  if low <= p.matching_samples < high and p.ratio is not None]
        if not bucket:
            continue
        mean_err = sum(abs(p.ratio - 1.0) for p in bucket) / len(bucket)
        inside = sum(1 for p in bucket if p.within_envelope) / len(bucket)
        rows.append({
            "k_low": low,
            "k_high": high,
            "points": len(bucket),
            "mean_abs_error": mean_err,
            "envelope_fraction": inside,
            "predicted_error": relative_error_envelope(max(1, low)),
        })
    return rows
