"""Fast functional profiling: trace-scale statistics without cycle timing.

The paper's Figure 3 samples traces of 10^8-10^9 instructions — far
beyond what a Python cycle-level model can simulate.  For experiments
that need only *event* statistics (retire counts, cache/TLB misses,
branch outcomes, path histories) and not latency registers, this module
provides a 10-30x faster path: the reference interpreter drives cache,
TLB, and branch-predictor models directly, and a ProfileMe-style sampler
selects retired instructions at random intervals.

What it deliberately lacks (use the cycle-level cores when these matter):

* latency registers (no timing exists);
* wrong-path effects (no speculation; aborted samples never appear);
* paired-sampling overlap metrics (no time axis).

Records produced here carry ``fetch_cycle = done_cycle = retired-
instruction index``, valid for ordering but not for latency math.
"""

from dataclasses import dataclass

from repro.analysis.database import ProfileDatabase
from repro.analysis.groundtruth import TRACKED_EVENTS, PcTruth
from repro.cpu.warm import WarmState
from repro.errors import ConfigError
from repro.events import AbortReason, Event
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.mem.hierarchy import MemoryHierarchy
from repro.utils.rng import SamplingRng

# warm.observe returns a plain-int event mask (hot path); records wrap
# it back into Event at the sampling points.
_MISPREDICT = int(Event.MISPREDICT)

# NOTE: repro.profileme imports are deferred into methods: profileme's
# fetch counter imports repro.cpu.probes, so importing it here would
# make repro.cpu's package import circular.


@dataclass
class FunctionalRun:
    """Results of a functional profiling run."""

    program: object
    retired: int
    database: ProfileDatabase
    records: list
    truth: dict  # pc -> PcTruth (event counts; no latencies)
    hierarchy: MemoryHierarchy
    mispredicts: int


class FunctionalProfiler:
    """Interpreter + memory/branch models + retired-instruction sampling.

    The microarchitectural models are no longer owned here: they live in
    a :class:`~repro.cpu.warm.WarmState`, which the two-speed scheduler
    shares between fast-forward and detailed windows.  Passing *warm*
    profiles into (and keeps warming) an existing contract instance;
    otherwise a fresh one is built.
    """

    def __init__(self, program, profile=None, hierarchy=None,
                 collect_truth=True, keep_records=False, warm=None):
        from repro.profileme.unit import ProfileMeConfig

        self.program = program
        self.profile = profile or ProfileMeConfig()
        # ProfileMeConfig validates this at construction, but profile is
        # duck-typed; a nonpositive mean would make every draw raise (or,
        # unclamped, pin the countdown below zero so sampling never fires
        # again).  Fail at construction with the typed error instead.
        if self.profile.mean_interval < 1:
            raise ConfigError("mean_interval must be >= 1, got %r"
                              % (self.profile.mean_interval,))
        self.warm = warm or WarmState(hierarchy=hierarchy)
        self.hierarchy = self.warm.hierarchy
        self.predictor = self.warm.predictor
        self.ghr = self.warm.ghr
        self.collect_truth = collect_truth
        self.keep_records = keep_records
        self._rng = SamplingRng(self.profile.seed)

    def _next_interval(self):
        if self.profile.distribution == "geometric":
            interval = self._rng.geometric_interval(self.profile.mean_interval)
        else:
            interval = self._rng.interval(self.profile.mean_interval,
                                          self.profile.jitter)
        # The run loop decrements then tests `== 0`: an interval of 0
        # would skip that test for the rest of the run.  Clamp so the
        # invariant (countdown always reaches exactly 0) holds even if a
        # custom rng returns a degenerate draw.
        return interval if interval >= 1 else 1

    def run(self, max_instructions=None):
        """Execute and sample; returns a :class:`FunctionalRun`.

        Without ground-truth collection the run takes the decoded-block
        trace cache path (:mod:`repro.cpu.tracecache`): whole basic
        blocks execute as one fused call between sampling points, and
        the profiler spills to per-instruction stepping only when the
        sampling countdown (or the instruction budget) is about to
        expire — so sample records are built from exactly the same
        observation the slow path would make.  Truth collection needs
        per-instruction event attribution, so it stays on the slow path.
        """
        if not self.collect_truth:
            return self._run_fused(max_instructions)
        return self._run_observed(max_instructions)

    def _sample_record(self, pc, inst, events, history, eff_addr, next_pc,
                       retired):
        """The ProfileRecord for one sampled retired instruction.

        Memory ops report their effective address, indirect jumps and
        returns their target; there are no latency registers.
        """
        from repro.profileme.registers import ProfileRecord

        addr = None
        if inst.is_memory or inst.is_prefetch:
            addr = eff_addr
        elif inst.op in (Opcode.JMP, Opcode.RET):
            addr = next_pc
        context = self.profile.context
        return ProfileRecord(
            context=context if context is not None else 0, pc=pc,
            op=inst.op, addr=addr, events=Event(events),
            abort_reason=AbortReason.NONE,
            history=history & ((1 << self.profile.path_bits) - 1),
            fetch_to_map=None, map_to_data_ready=None,
            data_ready_to_issue=None, issue_to_retire_ready=None,
            retire_ready_to_retire=None, load_issue_to_completion=None,
            fetch_cycle=retired, done_cycle=retired)

    def _run_observed(self, max_instructions):
        program = self.program
        interp = Interpreter(program)
        observe = self.warm.observe

        database = ProfileDatabase()
        records = []
        truth = {}
        countdown = self._next_interval()
        retired = 0
        mispredicts = 0

        for entry in interp.run(max_instructions=max_instructions):
            inst = entry.inst
            events, history = observe(entry.pc, inst, entry.taken,
                                      entry.next_pc, entry.eff_addr)
            if events & _MISPREDICT:
                mispredicts += 1

            pc_truth = truth.get(entry.pc)
            if pc_truth is None:
                pc_truth = PcTruth()
                truth[entry.pc] = pc_truth
            pc_truth.fetched += 1
            pc_truth.retired += 1
            for flag in TRACKED_EVENTS:
                if events & flag:
                    pc_truth.events[flag] = pc_truth.events.get(flag, 0) + 1

            countdown -= 1
            if countdown == 0:
                countdown = self._next_interval()
                record = self._sample_record(
                    entry.pc, inst, events, history, entry.eff_addr,
                    entry.next_pc, retired)
                database.add_record(record)
                if self.keep_records:
                    records.append(record)
            retired += 1

        return FunctionalRun(program=program, retired=retired,
                             database=database, records=records,
                             truth=truth, hierarchy=self.hierarchy,
                             mispredicts=mispredicts)

    def _run_fused(self, max_instructions):
        """Trace-cache execution: fused blocks between sampling points."""
        from repro.cpu.tracecache import BlockCache

        program = self.program
        interp = Interpreter(program)
        state = interp.state
        fetch = program.fetch
        warm = self.warm
        observe = warm.observe
        cache = BlockCache(program)

        database = ProfileDatabase()
        records = []
        countdown = self._next_interval()
        retired = 0
        mispredicts = 0
        ctr = [0]  # mispredicts observed inside fused blocks
        limit = max_instructions

        get = cache.blocks().get  # the program cannot change mid-run
        fill = cache.fill
        while not state.halted and (limit is None or retired < limit):
            block = get(state.pc) or fill(state.pc)
            # A fused block must not contain the sampling point: leave
            # at least one instruction of countdown for the spill path.
            budget = countdown - 1
            if limit is not None and limit - retired < budget:
                budget = limit - retired
            if block.fused is not None and block.length <= budget:
                done = block.fused(state, warm, budget, ctr)
                retired += done
                countdown -= done
                continue
            # Spill: the sampling point (or the instruction limit) is
            # closer than one block, or the instruction is unfusable.
            # Step exactly as the observed path would.
            pc = state.pc
            inst = fetch(pc)
            taken, next_pc, eff_addr = inst.exec_fn(state, inst, pc,
                                                    program)
            events, history = observe(pc, inst, taken, next_pc, eff_addr)
            if events & _MISPREDICT:
                mispredicts += 1
            countdown -= 1
            if countdown == 0:
                countdown = self._next_interval()
                record = self._sample_record(pc, inst, events, history,
                                             eff_addr, next_pc, retired)
                database.add_record(record)
                if self.keep_records:
                    records.append(record)
            state.pc = next_pc
            retired += 1

        interp.retired = retired
        return FunctionalRun(program=program, retired=retired,
                             database=database, records=records,
                             truth={}, hierarchy=self.hierarchy,
                             mispredicts=mispredicts + ctr[0])
