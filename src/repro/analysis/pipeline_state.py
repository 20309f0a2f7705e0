"""Statistical pipeline-state reconstruction from paired samples.

Section 5.2 suggests that "it may be possible to statistically
reconstruct detailed processor pipeline states from paired samples", and
section 5.2.4 sketches per-stage utilization metrics ("the average
utilization of a particular functional unit while I was in a given
pipeline stage").  This module implements both:

* :class:`PipelineStateEstimator` — accumulates, from every usable pair,
  which pipeline stage the *partner* occupied at each cycle offset
  relative to the anchor's fetch.  The normalized result approximates
  the probability of finding a concurrent instruction in a given stage
  k cycles after a random instruction is fetched — a statistical
  snapshot of pipeline occupancy around typical instructions.
* :func:`conditional_concurrency` — the paper's clustering example:
  compare useful-concurrency levels when the anchor hit vs missed in the
  D-cache (or any other event predicate).

All inputs are architecturally observable: latency registers plus the
intra-pair fetch latency.
"""

from dataclasses import dataclass
from typing import Dict

from repro.analysis.concurrency import PairTimeline, useful_overlap
from repro.errors import AnalysisError
from repro.events import Event
from repro.profileme.registers import sample_pairs

# Pipeline stages a partner can occupy at a given cycle, derived from its
# stage boundary times (in pipeline order).
STAGES = ("frontend", "queue", "execute", "waiting_retire")


def stage_at(times, cycle):
    """Which stage the instruction occupies at *cycle*, or None.

    frontend: [fetch, data_ready)   (fetch/map plus operand wait)
    queue:    [data_ready, issue)   (data-ready, contending for an FU)
    execute:  [issue, retire_ready)
    waiting_retire: [retire_ready, retire)
    """
    if cycle < times.fetch:
        return None
    boundaries = (
        ("frontend", times.data_ready),
        ("queue", times.issue),
        ("execute", times.retire_ready),
        ("waiting_retire", times.retire),
    )
    for stage, end in boundaries:
        if end is None:
            return None  # the instruction never got this far
        if cycle < end:
            return stage
    return None


class PipelineStateEstimator:
    """Occupancy histogram: stage x cycle-offset, from paired samples."""

    def __init__(self, max_offset=64):
        if max_offset < 1:
            raise AnalysisError("max_offset must be >= 1")
        self.max_offset = max_offset
        # stage -> [count per offset 0..max_offset-1]
        self.occupancy = {stage: [0] * max_offset for stage in STAGES}
        self.anchors = 0

    def add(self, sample):
        """Fold one paired/N-way sample in (other types are ignored)."""
        for pair in sample_pairs(sample):
            if not pair.complete or pair.intra_pair_cycles is None:
                continue
            timeline = PairTimeline(pair)
            for record, times, other_record, other_times in \
                    timeline.members():
                self.anchors += 1
                base = times.fetch
                for offset in range(self.max_offset):
                    stage = stage_at(other_times, base + offset)
                    if stage is not None:
                        self.occupancy[stage][offset] += 1

    def profile(self):
        """Normalized occupancy: stage -> [fraction per offset]."""
        if self.anchors == 0:
            raise AnalysisError("no pairs accumulated")
        return {
            stage: [count / self.anchors for count in counts]
            for stage, counts in self.occupancy.items()
        }

    def mean_occupancy(self, stage):
        """Average probability of finding the partner in *stage*."""
        if self.anchors == 0:
            raise AnalysisError("no pairs accumulated")
        counts = self.occupancy[stage]
        return sum(counts) / (len(counts) * self.anchors)


# ----------------------------------------------------------------------


def memory_shadow_overlap(anchor_record, anchor_times, other_record,
                          other_times):
    """Did the partner issue useful work under a load's memory shadow?

    The anchor's *memory shadow* is [issue, issue + Load-issue->Completion)
    — the interval its fill is outstanding.  On this machine (as on the
    Alpha) loads retire-ready immediately, so the plain in-progress
    interval cannot distinguish hits from misses; the shadow can, and
    "how much useful work issues under a miss's shadow" is exactly what
    prefetch/scheduling decisions need to know.
    """
    if anchor_record.load_issue_to_completion is None:
        return False
    if anchor_times.issue is None or other_times.issue is None:
        return False
    if not other_record.retired:
        return False
    start = anchor_times.issue
    end = start + anchor_record.load_issue_to_completion
    return start <= other_times.issue < end


@dataclass
class ConcurrencySplit:
    """Useful-overlap statistics for one anchor condition bucket."""

    anchors: int = 0
    useful: int = 0

    @property
    def rate(self):
        if self.anchors == 0:
            return 0.0
        return self.useful / self.anchors


def conditional_concurrency(pairs, predicate=None, pcs=None,
                            overlap=None):
    """Split useful-concurrency by an anchor condition (section 5.2.4).

    The paper: "it may be useful to compare the average concurrency level
    when instruction I hits in the cache with the concurrency level when
    I suffers a cache miss".  *predicate* maps an anchor record to a
    bucket key; the default buckets D-cache hits vs misses of memory
    operations.  *pcs* optionally restricts anchors to specific PCs.
    *overlap* chooses the overlap definition (default: the section 5.2.3
    useful overlap; :func:`memory_shadow_overlap` is the load-shadow
    variant) and receives (anchor_record, anchor_times, other_record,
    other_times).

    Returns {bucket: ConcurrencySplit}.
    """
    if overlap is None:
        def overlap(anchor_record, anchor_times, other_record, other_times):
            return useful_overlap(anchor_times, other_record, other_times)
    if predicate is None:
        def predicate(record):
            if record.op is None or record.op.value not in ("ld", "st"):
                return None
            return ("miss" if record.events & Event.DCACHE_MISS
                    else "hit")

    buckets: Dict[object, ConcurrencySplit] = {}
    for sample in pairs:
        for member in sample_pairs(sample):
            if not member.complete or member.intra_pair_cycles is None:
                continue
            timeline = PairTimeline(member)
            for record, times, other_record, other_times in \
                    timeline.members():
                if pcs is not None and record.pc not in pcs:
                    continue
                key = predicate(record)
                if key is None:
                    continue
                split = buckets.get(key)
                if split is None:
                    split = ConcurrencySplit()
                    buckets[key] = split
                split.anchors += 1
                if overlap(record, times, other_record, other_times):
                    split.useful += 1
    return buckets
