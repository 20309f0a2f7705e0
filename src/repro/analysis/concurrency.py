"""Paired-sample concurrency analysis (sections 5.2 and 6).

Everything here computes from exactly what the paired-sampling hardware
delivers: two ProfileRecords plus the intra-pair fetch latency.  The
:class:`PairTimeline` reconstructs both instructions' pipeline occupancy
on a common time axis (Figure 5b); predicates over timelines define
*overlap*; and :class:`PairAnalyzer` aggregates them incrementally into
the paper's metrics:

* **useful overlap** — while the anchor is *in progress* (fetch to
  retire-ready), the other instruction issues and subsequently retires;
* **wasted issue slots** — ``(L_I * C * S / 2) - (U_I * W * S)``
  (section 5.2.3), the paper's bottleneck metric;
* windowed/pairwise IPC and arbitrary user metrics f(I1, I2)
  (section 5.2.4's "flexible support for concurrency metrics").
"""

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import AnalysisError
from repro.isa.opcodes import OpClass, op_class
from repro.profileme.registers import sample_pairs


@dataclass(frozen=True)
class StageTimes:
    """One instruction's pipeline timestamps on the pair's shared axis.

    All values are cycles relative to the *first* instruction's fetch;
    any stage the instruction never reached (it aborted) is None.
    """

    fetch: int
    map: Optional[int]
    data_ready: Optional[int]
    issue: Optional[int]
    retire_ready: Optional[int]
    retire: Optional[int]

    @property
    def in_progress(self):
        """[fetch, retire_ready) — the paper's "in progress" interval."""
        if self.retire_ready is None:
            return None
        return (self.fetch, self.retire_ready)


def _accumulate(base, increment):
    if base is None or increment is None:
        return None
    return base + increment


def stage_times(record, fetch_offset):
    """Chain a record's latency registers into absolute stage times."""
    fetch = fetch_offset
    mapped = _accumulate(fetch, record.fetch_to_map)
    data_ready = _accumulate(mapped, record.map_to_data_ready)
    issue = _accumulate(data_ready, record.data_ready_to_issue)
    retire_ready = _accumulate(issue, record.issue_to_retire_ready)
    retire = _accumulate(retire_ready, record.retire_ready_to_retire)
    if not record.retired:
        retire = None
    return StageTimes(fetch=fetch, map=mapped, data_ready=data_ready,
                      issue=issue, retire_ready=retire_ready, retire=retire)


class PairTimeline:
    """Both members of a paired sample on a common time axis."""

    def __init__(self, pair):
        if pair.second is None or pair.intra_pair_cycles is None:
            raise AnalysisError("pair is incomplete; cannot build timeline")
        self.pair = pair
        self.first = stage_times(pair.first, 0)
        self.second = stage_times(pair.second, pair.intra_pair_cycles)

    def members(self):
        """[(record, times, other_record, other_times)] for both roles."""
        return [
            (self.pair.first, self.first, self.pair.second, self.second),
            (self.pair.second, self.second, self.pair.first, self.first),
        ]


# ----------------------------------------------------------------------
# Overlap predicates (section 5.2.2's alternative definitions).


def useful_overlap(anchor_times, other_record, other_times):
    """The section 5.2.3 definition: the other instruction issues during
    the anchor's in-progress interval and subsequently retires."""
    interval = anchor_times.in_progress
    if interval is None or other_times.issue is None:
        return False
    if not other_record.retired:
        return False
    start, end = interval
    return start <= other_times.issue < end


def issued_while_stalled(anchor_times, other_record, other_times):
    """Other issued while the anchor sat data-ready in the issue queue."""
    if (anchor_times.data_ready is None or anchor_times.issue is None
            or other_times.issue is None):
        return False
    return anchor_times.data_ready <= other_times.issue < anchor_times.issue


def retired_within(anchor_times, other_record, other_times, cycles):
    """Both retired within *cycles* of each other (pairwise IPC building
    block, section 5.2.4)."""
    if anchor_times.retire is None or other_times.retire is None:
        return False
    return abs(anchor_times.retire - other_times.retire) <= cycles


def concurrent_arithmetic(anchor_record, anchor_times, other_record,
                          other_times):
    """Both occupied arithmetic units in overlapping execute intervals."""
    for record in (anchor_record, other_record):
        if record.op is None or op_class(record.op) not in (
                OpClass.IALU, OpClass.IMUL, OpClass.FP):
            return False
    if (anchor_times.issue is None or anchor_times.retire_ready is None
            or other_times.issue is None
            or other_times.retire_ready is None):
        return False
    lo = max(anchor_times.issue, other_times.issue)
    hi = min(anchor_times.retire_ready, other_times.retire_ready)
    return lo < hi


# ----------------------------------------------------------------------


@dataclass
class PcConcurrency:
    """Per-PC accumulators for the wasted-issue-slot estimator."""

    pc: int
    appearances: int = 0  # samples involving this PC (both pair roles)
    useful_overlaps: int = 0  # U_I
    latency_sum: int = 0  # L_I: sum of fetch->retire-ready over samples
    latency_count: int = 0
    retired_appearances: int = 0


class PairAnalyzer:
    """Incremental sink for PairedRecords implementing section 5.2.

    Args:
        mean_interval: S — mean fetched instructions per sample *pair*.
        pair_window: W — the minor-interval window size.
        issue_width: C — sustainable issue slots per cycle.
    """

    def __init__(self, mean_interval, pair_window, issue_width):
        if mean_interval < 1 or pair_window < 1 or issue_width < 1:
            raise AnalysisError("S, W and C must all be >= 1")
        self.mean_interval = mean_interval
        self.pair_window = pair_window
        self.issue_width = issue_width
        self.per_pc = {}
        self.pairs_seen = 0
        self.pairs_usable = 0
        self._metric_sums = {}
        self._metrics = {}

    def _stats(self, pc):
        stats = self.per_pc.get(pc)
        if stats is None:
            stats = PcConcurrency(pc=pc)
            self.per_pc[pc] = stats
        return stats

    def register_metric(self, name, func):
        """Register an arbitrary pair metric f(first, second, timeline).

        The function's return value is summed; this is the section 5.2.4
        flexibility: "sampling the value of any function that can be
        expressed as f(I1, I2)".
        """
        self._metrics[name] = func
        self._metric_sums[name] = 0.0

    def metric_total(self, name):
        return self._metric_sums[name]

    def add(self, sample):
        """Fold one paired (or N-way) sample into the accumulators.

        An N-way :class:`GroupRecord` is decomposed into its constituent
        ordered pairs (each with the measured fetch offset), so N-way
        sampling feeds the same estimators with N(N-1)/2 pairs per
        interrupt.
        """
        for pair in sample_pairs(sample):
            self.pairs_seen += 1
            if pair.second is None or pair.intra_pair_cycles is None:
                continue
            self.pairs_usable += 1
            timeline = PairTimeline(pair)
            for record, times, other_record, other_times in \
                    timeline.members():
                if record.pc is None:
                    continue
                stats = self._stats(record.pc)
                stats.appearances += 1
                if record.retired:
                    stats.retired_appearances += 1
                latency = record.fetch_to_retire_ready
                if latency is not None:
                    stats.latency_sum += latency
                    stats.latency_count += 1
                if useful_overlap(times, other_record, other_times):
                    stats.useful_overlaps += 1
            for name, func in self._metrics.items():
                self._metric_sums[name] += func(pair.first, pair.second,
                                                timeline)

    # ------------------------------------------------------------------
    # Section 5.2.3 estimators.

    def estimated_useful_issues(self, pc):
        """U_I * W * S — issue slots used by useful overlap with *pc*."""
        stats = self.per_pc.get(pc)
        if stats is None:
            return 0.0
        return stats.useful_overlaps * self.pair_window * self.mean_interval

    def estimated_total_slots(self, pc):
        """L_I * C * S / 2 — issue slots available while *pc* in progress."""
        stats = self.per_pc.get(pc)
        if stats is None:
            return 0.0
        return (stats.latency_sum * self.issue_width
                * self.mean_interval / 2.0)

    def wasted_issue_slots(self, pc):
        """The paper's bottleneck metric: (L_I*C*S/2) - (U_I*W*S)."""
        return self.estimated_total_slots(pc) - self.estimated_useful_issues(pc)

    def ranked_by_waste(self, limit=None):
        """PCs by estimated wasted issue slots, descending."""
        ranked = sorted(self.per_pc,
                        key=lambda pc: self.wasted_issue_slots(pc),
                        reverse=True)
        if limit is not None:
            ranked = ranked[:limit]
        return [(pc, self.wasted_issue_slots(pc)) for pc in ranked]


def pairwise_ipc_estimate(pairs, window_cycles, issue_width):
    """Crude neighbourhood-IPC estimate from paired samples.

    Counts the fraction of usable pairs whose members retire within
    *window_cycles* of each other — the section 5.2.4 suggestion for
    measuring "IPC levels in the neighborhood of I".  Returns (fraction,
    usable_pairs).
    """
    close = 0
    usable = 0
    for pair in pairs:
        if pair.second is None or pair.intra_pair_cycles is None:
            continue
        timeline = PairTimeline(pair)
        usable += 1
        if retired_within(timeline.first, pair.second, timeline.second,
                          window_cycles):
            close += 1
    if usable == 0:
        return 0.0, 0
    return close / usable, usable


def ipc_variability(ipc_windows):
    """Section 6 statistics over windowed IPC values.

    Returns dict with max/min ratio and the retire-weighted standard
    deviation as a fraction of the mean.  Windows with zero retires are
    kept for the weighted statistics but excluded from the min (an idle
    window would make every ratio infinite).
    """
    values = [v for v in ipc_windows if v > 0]
    if not values:
        raise AnalysisError("no non-empty IPC windows")
    maximum = max(values)
    minimum = min(values)
    total_weight = sum(values)
    mean = sum(v * v for v in ipc_windows) / total_weight
    variance = sum(v * (v - mean) ** 2 for v in ipc_windows) / total_weight
    return {
        "max": maximum,
        "min": minimum,
        "max_min_ratio": maximum / minimum,
        "weighted_mean": mean,
        "weighted_stddev": math.sqrt(variance),
        "stddev_over_mean": math.sqrt(variance) / mean if mean else 0.0,
    }
