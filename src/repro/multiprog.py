"""Multiprogrammed simulation: several contexts sharing a memory system.

The paper stresses that sampling "profiles complete systems" and gives
ProfileMe a *Profiled Context Register* recording "the address space
number or other identification of the process or thread executing the
profiled instruction" (section 4.1.3).  This module exercises that
dimension: several programs run as separate hardware contexts that
interleave on the machine in fixed time quanta while **sharing the
unified L2** (each context keeps private L1s/TLBs, SMT-style private
front-end state), so contexts disturb each other exactly where shared
caches make them.

Implementation: one core instance per context, round-robin scheduled in
*quantum*-cycle slices (the engine layer's resumable ``drain=False``
stepping).  Each core's ProfileMe unit stamps its context id into every
record; the session keeps one profile database per context plus a merged
view, so per-process attribution can be checked against the shared-cache
interference it suffers.  The per-context profiling stack is the shared
:func:`repro.engine.session.attach_profileme` wiring.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.database import ProfileDatabase
from repro.cpu.config import MachineConfig
from repro.cpu.ooo.core import OutOfOrderCore
from repro.engine.session import attach_profileme, profile_config_for_context
from repro.errors import ConfigError
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.profileme.driver import ProfileMeDriver
from repro.profileme.unit import ProfileMeUnit


class SharedL2Hierarchy(MemoryHierarchy):
    """Per-context L1s/TLBs over one shared, physically-tagged L2.

    Contexts run in separate address spaces, so two contexts' identical
    *virtual* addresses live on different physical pages.  The shared L2
    is physically indexed: each context's accesses are offset into a
    disjoint physical range (a one-line stand-in for a page table), so
    contexts compete for L2 capacity instead of accidentally sharing
    lines.
    """

    def __init__(self, shared_l2, context, config=None):
        super().__init__(config)
        self.l2 = shared_l2  # replace the private L2 with the shared one
        self._physical_offset = context << 40

    def _miss_path(self, addr):
        return super()._miss_path(addr + self._physical_offset)


@dataclass
class ContextResult:
    """Everything one context produced."""

    context: int
    program: object
    core: OutOfOrderCore
    driver: Optional[ProfileMeDriver]
    database: Optional[ProfileDatabase]
    unit: Optional[ProfileMeUnit] = None

    @property
    def finished(self):
        return self.core.halted


class MultiProgramSession:
    """Round-robin execution of several programs with a shared L2.

    Args:
        programs: the per-context programs.
        quantum: cycles per scheduling slice.
        config: machine configuration (shared by all contexts).
        profile: optional ProfileMeConfig template; when given, every
            context gets its own ProfileMe unit with ``context`` set to
            its id (and a distinct seed).
        keep_records, keep_addresses: the per-context profiling sinks'
            record and effective-address retention.
    """

    def __init__(self, programs, quantum=200, config=None, profile=None,
                 keep_records=True, keep_addresses=0):
        if len(programs) < 1:
            raise ConfigError("need at least one program")
        if quantum < 1:
            raise ConfigError("quantum must be >= 1")
        self.quantum = quantum
        self.keep_addresses = keep_addresses
        config = config or MachineConfig.alpha21264_like()
        shared_l2 = Cache(config.memory.l2)
        self.shared_l2 = shared_l2

        self.contexts: List[ContextResult] = []
        for index, program in enumerate(programs):
            hierarchy = SharedL2Hierarchy(shared_l2, index, config.memory)
            core = OutOfOrderCore(program, config=config,
                                  hierarchy=hierarchy, context=index)
            driver = None
            database = None
            unit = None
            if profile is not None:
                stack = attach_profileme(
                    core, profile_config_for_context(profile, index),
                    keep_records=keep_records, keep_addresses=keep_addresses,
                    with_pairs=False)
                driver = stack.driver
                database = stack.database
                unit = stack.unit
            self.contexts.append(ContextResult(
                context=index, program=program, core=core, driver=driver,
                database=database, unit=unit))

    # ------------------------------------------------------------------

    def run(self, max_total_cycles=5_000_000):
        """Round-robin all contexts to completion; returns total cycles.

        A context that halts drops out of the rotation; the session ends
        when every context has halted (or the cycle budget is exhausted,
        which raises — a scheduling bug, not a valid outcome).
        """
        total = 0
        while True:
            active = [ctx for ctx in self.contexts if not ctx.core.halted]
            if not active:
                break
            for ctx in active:
                if ctx.core.halted:
                    continue
                ran = ctx.core.run(max_cycles=self.quantum, drain=False)
                total += ran
                if ctx.core.halted:
                    ctx.core.run(drain=True)  # no-op loop; drains leftovers
                if total > max_total_cycles:
                    raise ConfigError(
                        "multiprogram session exceeded %d cycles"
                        % max_total_cycles)
        for ctx in self.contexts:
            if ctx.unit is not None:
                ctx.unit.finalize()
        return total

    # ------------------------------------------------------------------

    def merged_database(self):
        """All contexts' profiles merged (requires profiling enabled).

        PCs from different programs are disambiguated by the Profiled
        Context Register: the merged database keys on
        ``(context << 32) | pc`` so overlapping address spaces cannot
        collide.
        """
        merged = ProfileDatabase(keep_addresses=self.keep_addresses)
        for ctx in self.contexts:
            if ctx.database is None:
                raise ConfigError("profiling was not enabled")
            for pc, profile in ctx.database.per_pc.items():
                merged.set_profile((ctx.context << 32) | pc, profile)
            merged.total_samples += ctx.database.total_samples
        return merged

    def context_sample_counts(self):
        """Per-context delivered sample counts."""
        return {ctx.context: (ctx.driver.delivered if ctx.driver else 0)
                for ctx in self.contexts}

    def records_by_context(self):
        """Check of the Profiled Context Register: records grouped by it."""
        grouped: Dict[int, list] = {}
        for ctx in self.contexts:
            if ctx.driver is None:
                continue
            for record in ctx.driver.all_single_records():
                grouped.setdefault(record.context, []).append(record)
        return grouped
