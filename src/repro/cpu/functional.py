"""Fast functional profiling: trace-scale statistics without cycle timing.

The paper's Figure 3 samples traces of 10^8-10^9 instructions — far
beyond what a Python cycle-level model can simulate.  For experiments
that need only *event* statistics (retire counts, cache/TLB misses,
branch outcomes, path histories) and not latency registers, this module
provides a 10-30x faster path: functional execution drives cache,
TLB, and branch-predictor models directly, and a ProfileMe-style sampler
selects retired instructions at random intervals.  Between samples the
program runs through :func:`repro.cpu.warm.fast_forward` on its shared
trace cache; only the sampled instruction (or, with ground-truth
collection, every instruction) is stepped and observed on its own.

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
from repro.cpu.warm import WarmState, fast_forward
from repro.errors import ConfigError
from repro.events import AbortReason, Event
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.mem.hierarchy import MemoryHierarchy
from repro.utils.rng import SamplingRng

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
        self.collect_truth = collect_truth
        self.keep_records = keep_records
        self._rng = SamplingRng(self.profile.seed)

    def run(self, max_instructions=None):
        """Execute and sample; returns a :class:`FunctionalRun`.

        Between sampling points the program runs through
        :func:`~repro.cpu.warm.fast_forward` (fused trace-cache blocks
        where they fit), stopping one instruction short of the sample;
        the sampled instruction itself is one observed step, so its
        record is built from exactly the observation
        :meth:`WarmState.observe` makes.  Truth collection needs
        per-instruction event attribution, so with it every instruction
        is an observed step.
        """
        from repro.profileme.unit import draw_interval

        program = self.program
        interp = Interpreter(program)
        state = interp.state
        fetch = program.fetch
        warm = self.warm
        observe = warm.observe
        collect_truth = self.collect_truth
        limit = max_instructions

        database = ProfileDatabase()
        records = []
        truth = {}
        countdown = draw_interval(self.profile, self._rng)
        retired = 0
        while not state.halted and (limit is None or retired < limit):
            if countdown > 1 and not collect_truth:
                budget = countdown - 1
                if limit is not None and limit - retired < budget:
                    budget = limit - retired
                done = fast_forward(interp, warm, budget)
                retired += done
                countdown -= done
                continue
            pc = state.pc
            inst = fetch(pc)
            taken, next_pc, eff_addr = inst.exec_fn(state, inst, pc,
                                                    program)
            events, history, _, _ = observe(pc, inst, taken, next_pc,
                                            eff_addr)
            state.pc = next_pc
            if collect_truth:
                pc_truth = truth.get(pc)
                if pc_truth is None:
                    pc_truth = truth[pc] = PcTruth()
                pc_truth.fetched += 1
                pc_truth.retired += 1
                for flag in TRACKED_EVENTS:
                    if events & flag:
                        pc_truth.events[flag] = \
                            pc_truth.events.get(flag, 0) + 1
            countdown -= 1
            if countdown == 0:
                countdown = draw_interval(self.profile, self._rng)
                record = self._sample_record(pc, inst, events, history,
                                             eff_addr, next_pc, retired)
                database.add_record(record)
                if self.keep_records:
                    records.append(record)
            retired += 1

        return FunctionalRun(program=program, retired=retired,
                             database=database, records=records,
                             truth=truth, hierarchy=self.hierarchy)

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
