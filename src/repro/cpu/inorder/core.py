"""In-order core model (Alpha 21164-like).

A stall-based, 4-wide in-order pipeline: instructions issue in program
order, stall on register hazards (scoreboard), on I-cache misses, and on
load-use dependences; branch mispredictions cost a fixed redirect penalty.

The model is execution-driven (it wraps the reference interpreter for
semantics) and publishes the same Probe callbacks as the out-of-order
core through the shared engine layer (:class:`~repro.engine.core.
CoreBase` + :class:`~repro.engine.bus.ProbeBus`), so event counters and
ProfileMe attach to either machine unchanged.  That symmetry is the
point: Figure 2 contrasts event-counter attribution on an in-order vs.
an out-of-order pipeline *running the same loop*.

Fidelity notes (documented substitutions):

* wrong-path fetch is modelled as a pure bubble (no wrong-path
  instructions are created) — on the in-order machine those instructions
  never execute, so only the penalty matters;
* retirement is in order, a fixed two stages after completion.
"""

from repro.branch.predictors import BranchPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.dynops import DynInst
from repro.cpu.probes import inst_slot
from repro.cpu.warm import WarmState
from repro.engine.core import CoreBase
from repro.errors import SimulationError
from repro.events import Event
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_REGS
from repro.mem.hierarchy import MemoryHierarchy

_FRONTEND_DEPTH = 2  # fetch -> issue stages
_RETIRE_DEPTH = 2  # complete -> retire stages
_MISPREDICT = int(Event.MISPREDICT)


class InOrderCore(CoreBase):
    """Greedy in-order timing model over the reference interpreter."""

    def __init__(self, program, config=None, hierarchy=None, predictor=None):
        super().__init__(config or MachineConfig.alpha21164_like())
        self.program = program
        # Caches, TLBs, gshare, BTB, RAS and the GHR are warmed through
        # the same contract the functional engines use; the core adds
        # only the timing (scoreboard, issue slots, redirect penalties).
        self.warm = WarmState(
            hierarchy or MemoryHierarchy(self.config.memory),
            predictor or BranchPredictor(self.config.predictor))
        self.hierarchy = self.warm.hierarchy
        self.predictor = self.warm.predictor

        self._interp = Interpreter(program)

        self._slots_used = 0
        self._reg_ready = [0] * NUM_REGS

        self.halted = False
        self.fetched = 0
        self.retired = 0
        self.aborted = 0  # never aborts: no wrong-path instructions exist
        self.mispredicts = 0

    def architectural_registers(self):
        return self._interp.state.regs.snapshot()

    def _register_pipeline_probes(self, registry):
        """The in-order machine's (much smaller) structure gauges."""
        prefix = "cpu%d.inorder" % self.context
        registry.register(prefix + ".slots_used",
                          lambda: self._slots_used,
                          kind="gauge", unit="slots",
                          description="issue slots consumed this cycle")
        registry.register(prefix + ".busy_registers",
                          lambda: sum(1 for ready in self._reg_ready
                                      if ready > self.cycle),
                          kind="gauge", unit="registers",
                          description="scoreboard registers still pending")

    # ------------------------------------------------------------------
    # Engine hook: the in-order model's schedulable step is one
    # *instruction* — the cycle cursor may jump forward by its stalls.

    def advance(self):
        entry = self._interp.step()
        if entry is None:
            self.halted = True
            return

        inst = entry.inst
        pc = entry.pc
        events, history, fetch_latency, data_latency = self.warm.observe(
            pc, inst, entry.taken, entry.next_pc, entry.eff_addr)
        dyninst = DynInst(seq=self.next_seq, pc=pc, inst=inst,
                          fetch_cycle=0)
        self.next_seq += 1
        dyninst.history_at_fetch = history
        dyninst.eff_addr = entry.eff_addr
        dyninst.events = events
        self.fetched += 1

        # A fetch-block crossing pays its I-cache access before issue.
        earliest = max(self.cycle, self.fetch_stall_until) + fetch_latency

        # Register hazards (stall-on-use scoreboard).
        reg_ready = self._reg_ready
        for reg in inst.sources:
            ready = reg_ready[reg]
            if ready > earliest:
                earliest = ready

        # In-order issue bandwidth.
        if earliest > self.cycle:
            self.cycle = earliest
            self._slots_used = 0
        elif self._slots_used >= self.config.issue_width:
            self.cycle += 1
            self._slots_used = 0
        issue = self.cycle
        self._slots_used += 1

        # Execute: a load waits for its data; stores and prefetches are
        # fire and forget.
        if inst.is_load:
            latency = data_latency
        elif inst.is_store or inst.is_prefetch:
            latency = 1
        else:
            latency = inst.exec_latency
        complete = issue + latency

        dest = inst.dest_reg
        if dest is not None:
            reg_ready[dest] = complete

        # Control flow: the redirect cost of a misprediction.
        if inst.is_control_flow:
            mispredicted = bool(events & _MISPREDICT)
            if inst.is_conditional:
                dyninst.actual_taken = entry.taken
                dyninst.predicted_taken = entry.taken != mispredicted
            else:
                dyninst.actual_taken = True
            dyninst.actual_target = entry.next_pc
            if mispredicted:
                self.mispredicts += 1
                self.fetch_stall_until = (complete
                                          + self.config.mispredict_penalty)

        # Timestamps: fixed frontend depth, in-order retirement.
        dyninst.fetch_cycle = max(0, issue - _FRONTEND_DEPTH)
        dyninst.map_cycle = max(0, issue - 1)
        dyninst.data_ready_cycle = issue
        dyninst.issue_cycle = issue
        dyninst.exec_complete_cycle = complete
        if inst.is_load:
            dyninst.load_complete_cycle = complete
        retire = max(self._last_retire_cycle, complete + _RETIRE_DEPTH)
        dyninst.retire_cycle = retire
        self._last_retire_cycle = retire
        self.retired += 1

        bus = self.bus
        if bus.fetch_every_cycle or (bus.fetch_slots
                                     and bus.fetch_countdown <= 1):
            slots = [inst_slot(dyninst)]
            for callback in bus.fetch_slots:
                callback(dyninst.fetch_cycle, slots)
        elif bus.fetch_slots:
            # A lone fetch-countdown owner: the one slot is an
            # instruction, which counts in either CountMode.
            bus.fetch_countdown -= 1
        for callback in bus.issue:
            callback(dyninst, issue)
        for callback in bus.retire:
            callback(dyninst, retire)
        if dyninst.profile_tag is not None:
            for callback in bus.tagged_retire:
                callback(dyninst, retire)
        for callback in bus.cycle_end:
            callback(self.cycle)

        if inst.op is Opcode.HALT:
            self.halted = True
        if self.retired > 200_000_000:
            raise SimulationError("runaway in-order simulation")
