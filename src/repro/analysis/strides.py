"""Dynamic stride profiling from sampled effective addresses.

The Profiled Address Register gives every memory sample an effective
address.  Even at sparse sampling rates, a strided load betrays itself:
between two samples of the same PC taken ``d`` retired instructions
apart, the address advances by ``stride * (d / loop_length)`` — so the
*address delta per retired instruction* is constant, and the per-
iteration stride follows once the loop length is known (from the CFG's
natural loops).

This powers a purely profile-driven variant of the section 7 prefetch
pass: no static induction-variable analysis, just samples — the same
way DCPI-era tools really worked on binaries.
"""

from dataclasses import dataclass
from typing import Optional

from repro.events import Event
from repro.isa.loops import find_loops, loop_of_pc


@dataclass(frozen=True)
class StrideEstimate:
    """Estimated access pattern of one static memory instruction."""

    pc: int
    samples: int
    bytes_per_instruction: float  # address slope vs retired index
    stride: Optional[int]  # per-iteration stride (needs loop context)
    confidence: float  # fraction of deltas agreeing with the median slope
    miss_fraction: float


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def estimate_strides(records, program=None, min_samples=4,
                     agreement=0.25):
    """Per-PC stride estimates from a list of ProfileRecords.

    Records must retain addresses and carry ``fetch_cycle`` as a
    monotonic instruction index (true for the functional profiler; for
    the cycle-level cores the cycle counter works equally well since
    only ratios matter).  When *program* is given, per-iteration strides
    are derived via natural-loop sizes.
    """
    by_pc = {}
    for record in records:
        if record.addr is None:
            continue
        by_pc.setdefault(record.pc, []).append(record)

    loops = find_loops(program) if program is not None else []
    estimates = []
    for pc, pc_records in by_pc.items():
        if len(pc_records) < min_samples:
            continue
        pc_records.sort(key=lambda r: r.fetch_cycle)
        slopes = []
        for earlier, later in zip(pc_records, pc_records[1:]):
            span = later.fetch_cycle - earlier.fetch_cycle
            if span <= 0:
                continue
            slopes.append((later.addr - earlier.addr) / span)
        if not slopes:
            continue
        slope = _median(slopes)
        if slope:
            agreeing = sum(1 for s in slopes
                           if abs(s - slope) <= abs(slope) * agreement)
        else:
            agreeing = sum(1 for s in slopes if s == 0)
        confidence = agreeing / len(slopes)

        stride = None
        if program is not None:
            loop = loop_of_pc(loops, pc)
            if loop is not None:
                # One loop iteration executes ~loop.size instructions
                # (straight-line body; branchy bodies make this a lower
                # bound, which rounding to a power-of-two-ish stride
                # usually survives).
                stride = int(round(slope * loop.size))
        misses = sum(1 for r in pc_records
                     if r.events & Event.DCACHE_MISS)
        estimates.append(StrideEstimate(
            pc=pc, samples=len(pc_records),
            bytes_per_instruction=slope, stride=stride,
            confidence=confidence,
            miss_fraction=misses / len(pc_records)))
    estimates.sort(key=lambda e: -e.miss_fraction)
    return estimates


def plan_prefetches_dynamic(program, records, lookahead_bytes=384,
                            min_confidence=0.6, miss_threshold=0.4,
                            min_samples=4):
    """Section 7 prefetch planning from samples alone.

    Unlike :func:`repro.analysis.optimize.plan_prefetches` (which needs
    static stride detection), this uses the sampled address slope: any
    load with a confidently linear address stream and a high miss
    fraction gets a prefetch ``lookahead_bytes`` ahead along its
    direction of travel.

    Returns :class:`repro.analysis.optimize.PrefetchPlan` objects usable
    with :func:`repro.analysis.optimize.insert_prefetches`.
    """
    from repro.analysis.optimize import PrefetchPlan

    plans = []
    for estimate in estimate_strides(records, program=program,
                                     min_samples=min_samples):
        if estimate.confidence < min_confidence:
            continue
        if estimate.miss_fraction < miss_threshold:
            continue
        if not estimate.stride:
            continue
        inst = program.fetch(estimate.pc)
        if not inst.is_load:
            continue
        direction = 1 if estimate.stride > 0 else -1
        plans.append(PrefetchPlan(
            load_pc=estimate.pc,
            base_reg=inst.src1,
            displacement=inst.imm + direction * lookahead_bytes,
            stride=estimate.stride,
            miss_fraction=estimate.miss_fraction))
    return plans
