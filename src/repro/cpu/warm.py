"""Warm microarchitectural state shared between execution engines.

Two-speed simulation alternates a functional fast-forward with detailed
OOO windows.  The fast-forward has no pipeline, but it must keep the
*long-lived* microarchitectural state — caches, TLBs, branch-direction
counters, BTB, RAS, global history — warm, or every detailed window
would start from a cold machine and measure mostly compulsory misses.

:class:`WarmState` is the explicit contract: it names exactly the state
that crosses engine boundaries.  :func:`fast_forward` is the one loop
that steps a program functionally: the two-speed scheduler calls it
between detailed windows and the functional profiler between samples.
Its per-instruction path, the profiler's observed steps and the in-order
core go through :meth:`WarmState.observe`, and its fused trace-cache
blocks make the same updates inline, so the engines cannot drift apart
in how they warm the models.

What the contract covers (carried across hand-offs):

* the memory hierarchy (L1 I/D, unified L2, I/D TLBs) — warmed with one
  I-side access per 64-byte line crossing plus every D-side access;
* the branch predictor (gshare counters, BTB, RAS);
* the global history register;
* the I-fetch line cursor (``last_fetch_line``).

What it does **not** cover (owned by the detailed core per window):
in-flight speculation, issue-queue/LSQ/ROB occupancy, rename state, and
the free-running cycle counter.  Those are rebuilt by each window's
warm-up prefix; see docs/architecture.md "Two-speed simulation".
"""

from repro.branch.history import GlobalHistoryRegister
from repro.branch.predictors import BranchPredictor
from repro.cpu import tracecache
from repro.events import Event
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode
from repro.mem.hierarchy import MemoryHierarchy

# Raw flag values: observe() runs once per functionally retired
# instruction, so its event composition stays on plain ints (see
# repro.mem.hierarchy); samplers wrap the mask back into Event.
_RETIRED = int(Event.RETIRED)
_BRANCH_TAKEN = int(Event.BRANCH_TAKEN)
_MISPREDICT = int(Event.MISPREDICT)


class WarmState:
    """The microarchitectural state shared across execution engines."""

    __slots__ = ("hierarchy", "predictor", "ghr", "last_fetch_line")

    GHR_BITS = 30  # wide enough for any path_bits mask the unit applies

    def __init__(self, hierarchy=None, predictor=None, ghr=None):
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.predictor = predictor or BranchPredictor()
        self.ghr = ghr or GlobalHistoryRegister(bits=self.GHR_BITS)
        self.last_fetch_line = None

    def note_redirect(self):
        """Invalidate the I-fetch line cursor after a fetch redirect.

        The detailed core fetches through its own front end, so after a
        window the cursor no longer matches the last line it touched;
        the scheduler calls this at every hand-off boundary.
        """
        self.last_fetch_line = None

    def observe(self, pc, inst, taken, next_pc, eff_addr):
        """Warm all models with one retired instruction.

        Returns ``(events, history, fetch_latency, data_latency)``: the
        event flags (an int bit mask of :class:`Event` values) a
        retired-instruction sampler would record, the global history
        *before* this instruction updated it, and the latencies of the
        I-side access (0 when the fetch stayed on the current line) and
        the D-side access (0 for non-memory instructions).  This is the
        reference for warming: the in-order core, the profiler's
        observed steps and :func:`fast_forward`'s per-instruction path
        call it, and fused trace-cache blocks must match it update for
        update.
        """
        hierarchy = self.hierarchy
        events = _RETIRED
        fetch_latency = data_latency = 0

        # Instruction fetch: one I-side access per 64B line crossing.
        line = pc >> 6
        if line != self.last_fetch_line:
            fetch_latency, fetch_events = hierarchy.ifetch(pc)
            events |= fetch_events
            self.last_fetch_line = line

        history = self.ghr.value

        if inst.is_load or inst.is_prefetch:
            data_latency, mem_events = hierarchy.dread(eff_addr)
            events |= mem_events
        elif inst.is_store:
            data_latency, mem_events = hierarchy.dwrite(eff_addr)
            events |= mem_events
        elif inst.is_conditional:
            predicted = self.predictor.direction.observe(pc, history, taken)
            self.ghr.push(taken)
            if taken:
                events |= _BRANCH_TAKEN
            if predicted != taken:
                events |= _MISPREDICT
            self.last_fetch_line = None
        elif inst.is_control_flow:
            predictor = self.predictor
            events |= _BRANCH_TAKEN
            op = inst.op
            if op is Opcode.JMP or op is Opcode.RET:
                predicted = (predictor.predict_indirect(pc)
                             if op is Opcode.JMP
                             else predictor.ras.pop())
                if predicted != next_pc:
                    events |= _MISPREDICT
                if op is Opcode.JMP:
                    predictor.train_indirect(pc, next_pc)
            elif op is Opcode.JSR:
                predictor.ras.push(pc + INSTRUCTION_BYTES)
            self.last_fetch_line = None

        return events, history, fetch_latency, data_latency

    def signature(self):
        """Comparable digest of every piece of contract state.

        Used by the warm-contract tests: two engines that claim to warm
        the same state must produce equal signatures for the same
        retired stream.
        """
        predictor = self.predictor
        direction = predictor.direction
        counters = getattr(direction, "_counters", None)
        return {
            "mem": self.hierarchy.stats(),
            "ghr": (self.ghr.value, self.ghr.shifted),
            "direction": tuple(counters) if counters is not None else None,
            "direction_outcomes": (direction.lookups, direction.correct),
            "btb": (tuple(predictor.btb._tags),
                    tuple(predictor.btb._targets)),
            "ras": tuple(predictor.ras._stack),
            "last_fetch_line": self.last_fetch_line,
        }


def fast_forward(interp, warm, count):
    """Architecturally execute up to *count* instructions, warming *warm*.

    The one functional stepping loop: no TraceEntry allocation, no
    sampling, no truth accounting — just architectural stepping plus the
    warm-state contract.  Returns the number of instructions retired,
    which is less than *count* only if the program halted.

    Whole decoded blocks from the program's shared trace cache
    (:func:`repro.cpu.tracecache.blocks`) execute as one fused call
    whenever a block fits in the remaining budget; the per-instruction
    path below covers the remainder (unfusable instructions, or a block
    longer than what is left of *count*).  Both paths make the updates
    the reference interpreter plus :meth:`WarmState.observe` would —
    ``tests/cpu/test_tracecache`` pins the equivalence.
    """
    state = interp.state
    program = interp.program
    fetch = program.fetch
    observe = warm.observe
    # Nothing below mutates the program, so one revalidation of
    # program.version covers every block of this call.
    cache = tracecache.blocks(program)
    get = cache.get
    done = 0
    while done < count and not state.halted:
        pc = state.pc
        block = get(pc)
        if block is None:
            block = cache[pc] = tracecache.compile_block(program, pc)
        if block.fused is not None and block.length <= count - done:
            done += block.fused(state, warm, count - done)
            continue
        inst = fetch(pc)
        taken, next_pc, eff_addr = inst.exec_fn(state, inst, pc, program)
        observe(pc, inst, taken, next_pc, eff_addr)
        state.pc = next_pc
        done += 1
    interp.retired += done
    return done
