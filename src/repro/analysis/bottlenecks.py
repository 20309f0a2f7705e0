"""Bottleneck identification metrics (section 6, Figure 7).

The paper's question: does per-instruction *latency* (available from
single-instruction sampling) pinpoint bottlenecks as well as *wasted
issue slots* (which needs paired sampling)?  Figure 7's answer: only when
concurrency is uniform — across code with varying useful concurrency the
two rankings diverge.

This module combines a :class:`ProfileDatabase` (latency estimates) with a
:class:`PairAnalyzer` (waste estimates) into comparable per-PC metrics,
measures how (dis)agreeing the two rankings are, and produces Table 1
style stall diagnoses from the latency registers.
"""

from dataclasses import dataclass
from typing import Optional

from repro.events import Event
from repro.utils.statistics import pearson, spearman

# Table 1: which latency register implicates which cause.
LATENCY_DIAGNOSIS = {
    "fetch_to_map": "stalls for physical registers or issue-queue slots",
    "map_to_data_ready": "stalls on data dependences",
    "data_ready_to_issue": "execution resource contention",
    "issue_to_retire_ready": "execution latency",
    "retire_ready_to_retire": "stalls on prior unretired instructions",
    "load_issue_to_completion": "memory system latency",
}


@dataclass
class InstructionMetric:
    """Latency and waste estimates for one static instruction."""

    pc: int
    samples: int
    total_latency: float  # estimated total fetch->retire-ready cycles
    wasted_slots: Optional[float]  # None without paired sampling


def instruction_metrics(database, mean_interval, pair_analyzer=None):
    """Per-PC metrics from aggregated samples.

    Total latency is estimated as (sum of sampled in-progress latencies)
    * S: each sample stands for S dynamic executions.  When a
    PairAnalyzer is supplied, its wasted-issue-slot estimate is attached.
    """
    metrics = []
    for pc, profile in database.per_pc.items():
        latency_sum = 0
        chain = ("fetch_to_map", "map_to_data_ready", "data_ready_to_issue",
                 "issue_to_retire_ready")
        complete = all(name in profile.latencies for name in chain)
        if complete:
            counts = [profile.latencies[name].count for name in chain]
            if min(counts) > 0:
                # Sum of per-sample chains == sum of per-register totals
                # when every register was recorded for the same samples.
                latency_sum = sum(profile.latencies[name].total
                                  for name in chain)
        wasted = None
        if pair_analyzer is not None and pc in pair_analyzer.per_pc:
            wasted = pair_analyzer.wasted_issue_slots(pc)
        metrics.append(InstructionMetric(
            pc=pc,
            samples=profile.samples,
            total_latency=latency_sum * mean_interval,
            wasted_slots=wasted,
        ))
    return metrics


def rank_agreement(metrics):
    """Correlation between the latency and waste rankings.

    Returns (pearson, spearman) over instructions that have both metrics.
    Figure 7's claim is that these correlations are weak across code with
    varying concurrency.
    """
    both = [(m.total_latency, m.wasted_slots) for m in metrics
            if m.wasted_slots is not None and m.samples > 0]
    if len(both) < 2:
        return 0.0, 0.0
    xs = [b[0] for b in both]
    ys = [b[1] for b in both]
    return pearson(xs, ys), spearman(xs, ys)


def top_bottlenecks(metrics, key="wasted_slots", limit=10):
    """Instructions ranked by *key* ("wasted_slots" or "total_latency")."""
    if key == "wasted_slots":
        usable = [m for m in metrics if m.wasted_slots is not None]
        usable.sort(key=lambda m: m.wasted_slots, reverse=True)
    elif key == "total_latency":
        usable = sorted(metrics, key=lambda m: m.total_latency, reverse=True)
    else:
        raise ValueError("unknown ranking key %r" % (key,))
    return usable[:limit]


def diagnose(profile):
    """Explain where one instruction's cycles go (Table 1 reading).

    Returns a list of (latency_register, mean_cycles, explanation),
    sorted by mean contribution, plus event-based annotations.
    """
    contributions = []
    for name, cause in LATENCY_DIAGNOSIS.items():
        aggregate = profile.latencies.get(name)
        if aggregate is None or aggregate.count == 0:
            continue
        contributions.append((name, aggregate.mean, cause))
    contributions.sort(key=lambda item: item[1], reverse=True)

    notes = []
    samples = max(1, profile.samples)
    for flag, label in ((Event.DCACHE_MISS, "D-cache miss"),
                        (Event.ICACHE_MISS, "I-cache miss"),
                        (Event.DTB_MISS, "DTB miss"),
                        (Event.MISPREDICT, "branch mispredict"),
                        (Event.ABORTED, "aborted (speculation)")):
        count = profile.event_count(flag)
        if count:
            notes.append("%s in %.1f%% of samples"
                         % (label, 100.0 * count / samples))
    return contributions, notes
