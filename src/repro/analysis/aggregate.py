"""Profile aggregation by program structure (section 3).

"Aggregate information, summarizing performance statistics over an
entire workload, an individual program, a procedure, or a smaller unit
such as a loop."  Per-PC profiles roll up losslessly:

* :func:`by_function` — samples, retire/abort split, event counts and
  estimated in-progress cycles per declared function;
* :func:`by_loop` — the same per natural loop (innermost attribution),
  using :mod:`repro.isa.loops`;
* :func:`hierarchy_report` — a text drill-down: program -> function ->
  loop, ranked by estimated cycles.
"""

from dataclasses import dataclass
from typing import Dict

from repro.analysis.reports import format_table
from repro.events import Event
from repro.isa.loops import find_loops, loop_of_pc


@dataclass
class UnitSummary:
    """Aggregated profile for one program unit (function or loop)."""

    name: str
    samples: int = 0
    retired: int = 0
    aborted: int = 0
    dcache_misses: int = 0
    icache_misses: int = 0
    mispredicts: int = 0
    latency_sum: int = 0  # sampled in-progress cycles (chain sums)

    def absorb(self, profile):
        self.samples += profile.samples
        self.retired += profile.event_count(Event.RETIRED)
        self.aborted += profile.event_count(Event.ABORTED)
        self.dcache_misses += profile.event_count(Event.DCACHE_MISS)
        self.icache_misses += profile.event_count(Event.ICACHE_MISS)
        self.mispredicts += profile.event_count(Event.MISPREDICT)
        for register in ("fetch_to_map", "map_to_data_ready",
                         "data_ready_to_issue", "issue_to_retire_ready"):
            self.latency_sum += profile.latency(register).total

    def estimated_cycles(self, mean_interval):
        return self.latency_sum * mean_interval


def by_function(database, program):
    """UnitSummary per declared function (plus '<outside>' if needed)."""
    summaries: Dict[str, UnitSummary] = {}
    for pc, profile in database.per_pc.items():
        name = program.function_of_pc(pc) or "<outside>"
        summary = summaries.get(name)
        if summary is None:
            summary = UnitSummary(name=name)
            summaries[name] = summary
        summary.absorb(profile)
    return summaries


def by_loop(database, program, loops=None):
    """UnitSummary per natural loop (innermost attribution).

    PCs outside any loop aggregate under '<function>/straightline'.
    """
    loops = loops if loops is not None else find_loops(program)
    summaries: Dict[str, UnitSummary] = {}
    for pc, profile in database.per_pc.items():
        loop = loop_of_pc(loops, pc)
        if loop is not None:
            name = "%s/loop@%#x" % (loop.function, loop.header)
        else:
            function = program.function_of_pc(pc) or "<outside>"
            name = "%s/straightline" % function
        summary = summaries.get(name)
        if summary is None:
            summary = UnitSummary(name=name)
            summaries[name] = summary
        summary.absorb(profile)
    return summaries


def hierarchy_report(database, program, mean_interval, limit=12):
    """Text drill-down ranked by estimated in-progress cycles."""
    functions = by_function(database, program)
    loops = by_loop(database, program)

    rows = []
    for summary in sorted(functions.values(),
                          key=lambda s: -s.latency_sum)[:limit]:
        rows.append([summary.name, summary.samples,
                     "%.0f" % summary.estimated_cycles(mean_interval),
                     summary.dcache_misses, summary.mispredicts,
                     summary.aborted])
    text = [format_table(
        ["function", "samples", "est. cycles", "D-miss", "mispred",
         "aborted"], rows, title="By function")]

    rows = []
    for summary in sorted(loops.values(),
                          key=lambda s: -s.latency_sum)[:limit]:
        rows.append([summary.name, summary.samples,
                     "%.0f" % summary.estimated_cycles(mean_interval),
                     summary.dcache_misses, summary.mispredicts,
                     summary.aborted])
    text.append(format_table(
        ["loop", "samples", "est. cycles", "D-miss", "mispred",
         "aborted"], rows, title="By loop (innermost)"))
    return "\n\n".join(text)
