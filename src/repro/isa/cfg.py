"""Static control-flow graph with the backward edges path profiling needs.

Figure 6 of the paper reconstructs execution paths by walking *backwards*
through the CFG from a sampled PC, consuming global-branch-history bits at
each conditional branch.  This module builds the predecessor structure that
walk needs:

* sequential (fall-through) predecessors,
* branch-taken predecessors (including unconditional branches and calls),
* observed indirect-jump predecessors (JMP; collected from a trace, since
  indirect targets are not static),
* interprocedural predecessors: the instruction after a call (``jsr+4``) is
  dynamically preceded by the callee's RET instructions, and a function
  entry is dynamically preceded by its call sites.

Conditional branches are the only instructions that consume history bits,
matching how global branch-history registers work on real hardware.
"""

from dataclasses import dataclass
from typing import Optional

from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode


# Edge kinds for a backward step from PC `at` to predecessor `pred`.
SEQ = "seq"  # pred falls through to `at` (includes not-taken cond branches)
TAKEN = "taken"  # pred is a direct branch/call whose target is `at`
INDIRECT = "indirect"  # pred is a JMP observed to target `at`
RETURN = "return"  # pred is a RET in the callee of the JSR at `at - 4`
CALL = "call"  # pred is a JSR whose target (function entry) is `at`


@dataclass(frozen=True)
class BackEdge:
    """One backward step: from some PC to *pred*.

    Attributes:
        pred: predecessor PC.
        kind: one of SEQ/TAKEN/INDIRECT/RETURN/CALL.
        taken_bit: the history bit consumed when *pred* is a conditional
            branch (1 for taken, 0 for fall-through), else None.
    """

    pred: int
    kind: str
    taken_bit: Optional[int]


class ControlFlowGraph:
    """Predecessor-oriented CFG over a :class:`~repro.isa.program.Program`.

    Args:
        program: the program to analyze.
        observed_indirect: optional mapping ``jmp_pc -> set of target PCs``
            collected from a trace (see :func:`observed_indirect_targets`).
            RET targets are *not* needed here: returns are resolved
            statically through function extents and call sites.
    """

    def __init__(self, program, observed_indirect=None):
        self.program = program
        self.observed_indirect = {
            pc: set(targets)
            for pc, targets in (observed_indirect or {}).items()
        }
        self._call_sites = {}  # function entry pc -> [jsr pc, ...]
        self._returns_of = {}  # function entry pc -> [ret pc, ...]
        self._preds = {}  # pc -> [BackEdge, ...] (intra + indirect edges)
        self._build()

    # ------------------------------------------------------------------

    def _build(self):
        program = self.program
        for index, inst in enumerate(program.instructions):
            pc = index * INSTRUCTION_BYTES
            next_pc = pc + INSTRUCTION_BYTES
            op = inst.op
            if op is Opcode.JSR:
                entry = inst.target
                self._call_sites.setdefault(entry, []).append(pc)
                # Dynamic flow continues at the callee, never at jsr+4.
            elif op is Opcode.BR:
                self._add_edge(inst.target, pc, TAKEN, None)
            elif inst.is_conditional:
                self._add_edge(inst.target, pc, TAKEN, 1)
                self._add_edge(next_pc, pc, SEQ, 0)
            elif op is Opcode.JMP:
                for target in sorted(self.observed_indirect.get(pc, ())):
                    self._add_edge(target, pc, INDIRECT, None)
            elif op in (Opcode.RET, Opcode.HALT):
                pass  # returns handled via function extents below
            else:
                self._add_edge(next_pc, pc, SEQ, None)

        for name, (start, end) in program.functions.items():
            rets = []
            for pc in range(start, end, INSTRUCTION_BYTES):
                if program.fetch(pc).op is Opcode.RET:
                    rets.append(pc)
            self._returns_of[start] = rets

    def _add_edge(self, at, pred, kind, taken_bit):
        self._preds.setdefault(at, []).append(
            BackEdge(pred=pred, kind=kind, taken_bit=taken_bit))

    # ------------------------------------------------------------------

    def predecessors(self, pc, interprocedural=False,
                     expected_call_site=None):
        """Backward steps from *pc*.

        In intraprocedural mode, CALL and RETURN edges are omitted: the walk
        simply ends when it would need them (the paper finishes
        intraprocedural paths at the beginning of the routine).

        In interprocedural mode:

        * if *pc* is a function entry, predecessors are its call sites
          (restricted to *expected_call_site* when the walk previously
          descended through this callee's RET);
        * if ``pc - 4`` is a JSR, predecessors are the callee's RETs (the
          dynamic instruction executed immediately before ``pc``).
        """
        edges = list(self._preds.get(pc, ()))
        program = self.program

        prev_pc = pc - INSTRUCTION_BYTES
        prev = program.fetch_or_none(prev_pc)
        if prev is not None and prev.op is Opcode.JSR:
            if interprocedural:
                for ret_pc in self._returns_of.get(prev.target, ()):
                    edges.append(BackEdge(pred=ret_pc, kind=RETURN,
                                          taken_bit=None))
            # Intraprocedural: no way backwards across a call boundary.

        if interprocedural and pc in self._call_sites:
            for jsr_pc in self._call_sites[pc]:
                if (expected_call_site is not None
                        and jsr_pc != expected_call_site):
                    continue
                edges.append(BackEdge(pred=jsr_pc, kind=CALL, taken_bit=None))
        return edges


def observed_indirect_targets(trace):
    """Collect ``jmp_pc -> {targets}`` from a functional trace.

    Only JMP needs observed targets; RET flow is recovered statically from
    function extents, and profiling a real binary would obtain the same
    information from the Profiled Address Register of sampled jumps (the
    paper's Profiled Address Register records "the target address of
    indirect jump instructions").
    """
    observed = {}
    for entry in trace:
        if entry.inst.op is Opcode.JMP:
            observed.setdefault(entry.pc, set()).add(entry.next_pc)
    return observed


def edge_counts(trace):
    """Count dynamic control-flow transitions ``(from_pc, to_pc) -> count``.

    This is the profile the *execution counts* reconstruction scheme uses
    to pick the most likely predecessor at CFG merge points.
    """
    counts = {}
    prev_pc = None
    for entry in trace:
        if prev_pc is not None:
            key = (prev_pc, entry.pc)
            counts[key] = counts.get(key, 0) + 1
        prev_pc = entry.pc
    return counts
