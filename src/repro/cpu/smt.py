"""Simultaneous multithreading: hardware contexts sharing one pipeline.

ProfileMe was designed at DIGITAL while the SMT Alpha (21464) was taking
shape, and the paper's Profiled Context Register is exactly what
attributes samples on such a machine.  This model runs T hardware
contexts *simultaneously*:

* **shared per cycle**: issue bandwidth, functional units, memory
  hierarchy (both L1s!), branch predictor tables;
* **per context (partitioned)**: fetch/map front end, rename registers,
  issue-queue entries, ROB/LSQ, global history register — the
  Pentium-4-style partitioned-queue design point, which keeps per-thread
  in-order semantics trivially correct;
* **fetch policy**: round-robin, one context fetches per cycle.

Unlike :mod:`repro.multiprog` (time-sliced quanta), contexts here
genuinely overlap cycle by cycle: a memory-bound thread's stall cycles
are filled by a compute-bound partner — the classic SMT win, measurable
with `smt_speedup`.

One ProfileMe unit attaches to the whole machine (as the hardware
would): it samples the merged fetch stream and the Profiled Context
Register stamps each record with its thread, so per-thread profiles fall
out of one sampling infrastructure.
"""

from typing import List

from repro.branch.predictors import BranchPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.engine.core import CoreBase
from repro.errors import ConfigError
from repro.mem.hierarchy import MemoryHierarchy


class _Relay(Probe):
    """Forwards one thread core's probe events onto the SMT-level bus.

    Cycle ends are suppressed: the SMT machine announces its own, once.
    """

    def __init__(self, bus):
        self._bus = bus

    def on_fetch_slots(self, cycle, slots):
        for callback in self._bus.fetch_slots:
            callback(cycle, slots)

    def on_issue(self, dyninst, cycle):
        for callback in self._bus.issue:
            callback(dyninst, cycle)

    def on_retire(self, dyninst, cycle):
        for callback in self._bus.retire:
            callback(dyninst, cycle)
        if dyninst.profile_tag is not None:
            for callback in self._bus.tagged_retire:
                callback(dyninst, cycle)

    def on_abort(self, dyninst, cycle):
        for callback in self._bus.abort:
            callback(dyninst, cycle)
        if dyninst.profile_tag is not None:
            for callback in self._bus.tagged_abort:
                callback(dyninst, cycle)


class SmtCore(CoreBase):
    """T-context SMT machine over the out-of-order pipeline model."""

    def __init__(self, programs, config=None, partition=True):
        if not 1 <= len(programs) <= 4:
            raise ConfigError("SMT model supports 1..4 contexts")
        super().__init__(config or MachineConfig.alpha21264_like())
        threads = len(programs)
        thread_config = self.config
        if partition and threads > 1:
            # Partition the window resources evenly across contexts.
            thread_config = MachineConfig.alpha21264_like(
                name=self.config.name + "-smt%d" % threads,
                fetch_width=self.config.fetch_width,
                map_width=self.config.map_width,
                issue_width=self.config.issue_width,
                retire_width=self.config.retire_width,
                rob_entries=max(8, self.config.rob_entries // threads),
                iq_entries=max(4, self.config.iq_entries // threads),
                lsq_entries=max(4, self.config.lsq_entries // threads),
                phys_regs=max(40, 32 + (self.config.phys_regs - 32)
                              // threads),
                fetch_queue_entries=self.config.fetch_queue_entries,
                frontend_delay=self.config.frontend_delay,
                mispredict_penalty=self.config.mispredict_penalty,
                units=self.config.units,
                memory=self.config.memory,
                predictor=self.config.predictor,
            )

        self.hierarchy = MemoryHierarchy(self.config.memory)
        self.predictor = BranchPredictor(self.config.predictor)
        self.threads: List[OutOfOrderCore] = []
        for index, program in enumerate(programs):
            core = OutOfOrderCore(program, config=thread_config,
                                  hierarchy=self.hierarchy,
                                  predictor=self.predictor,
                                  context=index)
            core.add_probe(_Relay(self.bus))
            self.threads.append(core)

    # ------------------------------------------------------------------

    def request_fetch_stall(self, cycles):
        """Profiling-interrupt cost: stalls every context's front end."""
        for core in self.threads:
            core.request_fetch_stall(cycles)

    @property
    def halted(self):
        return all(core.halted for core in self.threads)

    @property
    def retired(self):
        return sum(core.retired for core in self.threads)

    @property
    def fetched(self):
        return sum(core.fetched for core in self.threads)

    @property
    def aborted(self):
        return sum(core.aborted for core in self.threads)

    @property
    def mispredicts(self):
        return sum(core.mispredicts for core in self.threads)

    # ------------------------------------------------------------------

    def _register_probes(self, registry):
        """The SMT machine's whole namespace, built in one place.

        Each context contributes its own ``cpu<ctx>.*`` subtree (the
        same shape a single-context machine exposes, which is what the
        cross-core parity test pins); the machine adds ``smt.*``
        aggregates; the *shared* hierarchy and predictor register
        exactly once — registering them per thread would collide, and
        they genuinely are one structure.
        """
        for core in self.threads:
            core._register_core_probes(registry)
            core._register_pipeline_probes(registry)
        registry.register("smt.threads", lambda: len(self.threads),
                          kind="gauge", unit="contexts",
                          description="hardware contexts configured")
        registry.register("smt.cycles", lambda: self.cycle,
                          kind="counter", unit="cycles",
                          description="machine cycles simulated")
        registry.register("smt.retired", lambda: self.retired,
                          kind="counter", unit="instructions",
                          description="instructions retired, all contexts")
        registry.register("smt.fetched", lambda: self.fetched,
                          kind="counter", unit="instructions",
                          description="instructions fetched, all contexts")
        registry.register("smt.aborted", lambda: self.aborted,
                          kind="counter", unit="instructions",
                          description="instructions aborted, all contexts")
        registry.register("smt.mispredicts", lambda: self.mispredicts,
                          kind="counter", unit="branches",
                          description="mispredicted branches, all contexts")
        registry.register("smt.ipc", lambda: self.ipc,
                          kind="gauge", unit="instructions/cycle",
                          description="aggregate retired IPC")
        registry.register("smt.halted", lambda: int(self.halted),
                          kind="gauge", unit="bool",
                          description="1 when every context has halted")
        self.hierarchy.register_probes(registry)
        self.predictor.register_probes(registry)

    def step_cycle(self):
        """One machine cycle: all contexts advance, sharing the back end."""
        cycle = self.cycle
        active = [core for core in self.threads if not core.halted]

        for core in active:
            core.cycle = cycle
            core._process_completions(cycle)
        for core in active:
            if not core.halted:
                core._retire(cycle)

        # Shared issue: rotate the starting context for fairness.
        units = {
            "ialu": self.config.units.ialu,
            "imul": self.config.units.imul,
            "fp": self.config.units.fp,
            "mem": self.config.units.mem_ports,
        }
        budget = self.config.issue_width
        order = active[cycle % len(active):] + active[:cycle % len(active)] \
            if active else []
        for core in order:
            if not core.halted:
                budget = core._issue(cycle, units=units, budget=budget)

        for core in order:
            if not core.halted:
                core._map(cycle)

        # Fetch policy: ICOUNT (Tullsen et al.) — fetch the context with
        # the fewest in-flight instructions, rotating ties.  A stalled
        # memory-bound thread fills the window and naturally yields the
        # front end to its partner; plain round-robin would halve a
        # compute-bound thread's fetch bandwidth.
        if order:
            fetcher = min(order, key=lambda core: (
                len(core.rob) + len(core.fetch_queue),
                (core.context - cycle) % len(self.threads)))
            if not fetcher.halted:
                fetcher._fetch(cycle)

        for callback in self.bus.cycle_end:
            callback(cycle)
        self.cycle = cycle + 1

    advance = step_cycle

    def run(self, max_cycles=200_000, max_retired=None, deadlock_limit=None,
            drain=True):
        """Run until every context halts; returns total machine cycles.

        Unlike the single-context cores, exhausting *max_cycles* without
        halting raises: an SMT schedule that never finishes is a bug in
        the sharing logic, not a valid outcome.  Per-thread deadlocks
        are caught by the member cores' own bookkeeping, so the engine's
        machine-level deadlock check is off by default.
        """
        start = self.cycle
        ran = super().run(max_cycles=max_cycles, max_retired=max_retired,
                          deadlock_limit=deadlock_limit, drain=False)
        if (not self.halted and max_cycles is not None
                and self.cycle - start >= max_cycles
                and (max_retired is None or self.retired < max_retired)):
            raise ConfigError("SMT run exceeded %d cycles" % max_cycles)
        if drain:
            self._drain()
        return ran

    def _drain(self):
        for core in self.threads:
            core._drain()


def smt_speedup(programs, config=None, max_cycles=500_000):
    """Throughput of SMT vs running the same programs back to back.

    Returns (smt_cycles, serial_cycles, speedup).  Speedup > 1 means the
    contexts covered each other's stalls.
    """
    serial = 0
    for program in programs:
        core = OutOfOrderCore(program, config=config)
        serial += core.run(max_cycles=max_cycles)
    smt = SmtCore(programs, config=config)
    smt_cycles = smt.run(max_cycles=max_cycles)
    return smt_cycles, serial, serial / smt_cycles
