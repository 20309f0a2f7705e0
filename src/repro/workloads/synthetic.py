"""Synthetic SPECint95-like workload generator.

The paper's statistical experiments (Figures 3 and 6, section 6) run over
SPECint95 traces.  Real Alpha binaries are unavailable, so this module
generates programs in the package ISA whose *instruction streams* have the
properties those experiments depend on:

* data-dependent conditional branches with controllable bias, driven by a
  64-bit LCG computed *inside the program* (so outcomes are genuinely
  data-dependent, not compile-time constants);
* loops, multi-function control flow, call/return (including bounded
  recursion), and jump-table switches (indirect JMP);
* memory access patterns — sequential, strided, pseudo-random, and
  pointer-chasing over a linked list — against a configurable footprint;
* mixes of short ALU, long multiply, and FP-class operations.

Each named benchmark in :mod:`repro.workloads.suite` is a
:class:`SyntheticSpec` tuned to caricature one SPECint95 member's
behaviour (branchiness, footprint, call intensity).  DESIGN.md records
this substitution.

Register conventions (within generated programs):
    r16 LCG state      r17 data base        r18 index mask (words)
    r27/r28 LCG const  r29 bias mask (255)  r30 stack pointer
    r20-r23 loop counters, r26/r25 return addresses, r1-r15 scratch.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.utils.rng import SamplingRng

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407

ACCESS_PATTERNS = ("none", "seq", "stride", "random", "chase")


@dataclass(frozen=True)
class PhaseSpec:
    """One phase (inner loop) of a synthetic benchmark."""

    iterations: int = 40
    branch_biases: Tuple[int, ...] = (128,)  # taken prob out of 256
    access: str = "none"
    accesses_per_iter: int = 1
    mul_ops: int = 1
    fp_ops: int = 0
    alu_ops: int = 4
    body_nops: int = 0
    use_switch: bool = False
    call_helper: bool = False
    preamble_guards: int = 2  # guard branches before the loop (see below)

    def __post_init__(self):
        if self.access not in ACCESS_PATTERNS:
            raise ConfigError("unknown access pattern %r" % (self.access,))
        for bias in self.branch_biases:
            if not 0 <= bias <= 256:
                raise ConfigError("branch bias must be in [0, 256]")
        if self.iterations < 1:
            raise ConfigError("phase needs >= 1 iteration")


@dataclass(frozen=True)
class SyntheticSpec:
    """Complete description of one synthetic benchmark."""

    name: str
    seed: int = 1
    outer_iterations: int = 20
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(),)
    footprint_words: int = 4096  # power of two
    recursion_depth: int = 0  # > 0 adds a recursive call per outer iter
    helpers: int = 2

    def __post_init__(self):
        if self.footprint_words & (self.footprint_words - 1):
            raise ConfigError("footprint_words must be a power of two")
        if self.outer_iterations < 1:
            raise ConfigError("need >= 1 outer iteration")
        if not self.phases:
            raise ConfigError("need >= 1 phase")


class _Generator:
    """Builds one program from a spec."""

    def __init__(self, spec):
        self.spec = spec
        self.rng = SamplingRng(spec.seed).fork("synthetic:" + spec.name)
        self.b = ProgramBuilder(name=spec.name)
        self._shift_cursor = 3
        self._unique = 0

    # -- small emission helpers ---------------------------------------

    def _label(self, stem):
        self._unique += 1
        return "%s_%d" % (stem, self._unique)

    def _lcg_step(self):
        b = self.b
        b.mul(16, 16, 27)
        b.add(16, 16, 28)

    def _next_shift(self):
        # Rotate through shift amounts so branches draw decorrelated bits.
        shift = self._shift_cursor
        self._shift_cursor = 3 + (self._shift_cursor + 7) % 45
        return shift

    def _biased_branch(self, bias):
        """Emit a data-dependent branch taken with probability bias/256."""
        b = self.b
        taken = self._label("taken")
        join = self._label("join")
        b.srl(2, 16, self._next_shift())
        b.and_(2, 2, 29)
        b.ldi(3, bias)
        b.cmplt(4, 2, 3)
        b.bne(4, taken)
        # Not-taken block.
        b.add(5, 5, 2)
        b.xor(6, 6, 2)
        b.br(join)
        b.label(taken)
        b.sub(5, 5, 2)
        b.add(6, 6, 3)
        b.label(join)

    def _address_from_index(self, index_reg):
        """r2 = base + (index & mask) * 8."""
        b = self.b
        b.and_(2, index_reg, 18)
        b.sll(2, 2, 3)
        b.add(2, 2, 17)

    def _memory_access(self, pattern, counter_reg, ordinal):
        b = self.b
        if pattern == "none":
            return
        if pattern == "seq":
            b.add(7, counter_reg, counter_reg)  # 2*i: dense-ish walk
            b.lda(7, 7, ordinal)
            self._address_from_index(7)
            b.ld(8, 2, 0)
            b.add(5, 5, 8)
        elif pattern == "stride":
            b.sll(7, counter_reg, 3)  # stride of 8 words = one line
            b.lda(7, 7, ordinal * 16)
            self._address_from_index(7)
            b.ld(8, 2, 0)
            b.add(5, 5, 8)
        elif pattern == "random":
            b.srl(7, 16, self._next_shift())
            self._address_from_index(7)
            b.ld(8, 2, 0)
            b.add(5, 5, 8)
            # Occasionally store back (read-modify-write mix).
            if ordinal % 2 == 1:
                b.st(5, 2, 0)
        elif pattern == "chase":
            b.ld(9, 9, 0)  # r9 = next pointer (serial chain of loads)
        else:  # pragma: no cover - guarded by PhaseSpec validation
            raise ConfigError("unknown access pattern %r" % (pattern,))

    def _switch(self, cases=4):
        """Emit a jump-table switch over low LCG bits."""
        b = self.b
        table = self._label("table")
        join = self._label("swjoin")
        case_labels = [self._label("case") for _ in range(cases)]
        b.jump_table(table, case_labels)
        b.srl(2, 16, self._next_shift())
        b.ldi(3, cases - 1)
        b.and_(2, 2, 3)
        b.sll(2, 2, 3)
        b.ldi(3, b.address_of(table))
        b.add(2, 2, 3)
        b.ld(3, 2, 0)
        b.jmp(3)
        for index, label in enumerate(case_labels):
            b.label(label)
            b.lda(5, 5, index + 1)
            b.xor(6, 6, 5)
            if index % 2 == 0:
                b.add(6, 6, 2)
            b.br(join)
        b.label(join)

    def _compute_ops(self, phase):
        b = self.b
        for _ in range(phase.mul_ops):
            b.mul(10, 16, 27)
            b.add(5, 5, 10)
        for index in range(phase.fp_ops):
            if index % 3 == 2:
                b.fmul(11, 5, 6)
            else:
                b.fadd(11, 5, 6)
            b.xor(6, 6, 11)
        for index in range(phase.alu_ops):
            if index % 3 == 0:
                b.add(12, 5, 6)
            elif index % 3 == 1:
                b.xor(13, 12, 5)
            else:
                b.or_(14, 13, 12)
        if phase.body_nops:
            b.nop(phase.body_nops)

    # -- functions ------------------------------------------------------

    def _emit_helper(self, index):
        b = self.b
        name = "helper_%d" % index
        b.begin_function(name)
        b.add(5, 5, 6)
        b.mul(10, 5, 27)
        b.xor(6, 6, 10)
        if index % 2 == 0:
            b.srl(7, 16, self._next_shift())
            self._address_from_index(7)
            b.ld(8, 2, 0)
            b.add(5, 5, 8)
        b.ret(25)
        b.end_function()
        return name

    def _emit_recursion(self):
        b = self.b
        b.begin_function("recurse")
        b.bne(1, "recurse_go")
        b.ret(26)
        b.label("recurse_go")
        b.st(26, 30, 0)
        b.st(1, 30, 8)
        b.lda(30, 30, 16)
        b.lda(1, 1, -1)
        b.add(5, 5, 1)
        b.jsr("recurse", ra=26)
        b.lda(30, 30, -16)
        b.ld(1, 30, 8)
        b.ld(26, 30, 0)
        b.ret(26)
        b.end_function()

    def _emit_phase(self, index, phase, helper_names):
        b = self.b
        name = "phase_%d" % index
        save = "save_ra_%d" % index
        b.alloc(save, 1)
        b.begin_function(name)
        b.ldi(3, b.address_of(save))
        b.st(26, 3, 0)
        b.ldi(21, phase.iterations)
        # Preamble guard branches, like the zero-trip checks compilers
        # emit before loops (branch past the loop if the count is zero).
        # They matter for path profiling (Figure 6): a loop head reachable
        # from the function entry without crossing any conditional branch
        # admits a trivially-consistent "fell in from the entry" path on
        # every backward reconstruction, making unique reconstruction
        # impossible.  Real code fronts its loops with guards; each one
        # forces the fall-in path to consume a history bit (not-taken),
        # which the actual in-loop history contradicts half the time.
        exit_label = self._label("pexit")
        for _ in range(phase.preamble_guards):
            b.beq(21, exit_label)
            b.lda(6, 6, 1)
        loop = self._label("ploop")
        b.label(loop)
        self._lcg_step()
        for ordinal, bias in enumerate(phase.branch_biases):
            self._biased_branch(bias)
        for ordinal in range(phase.accesses_per_iter):
            self._memory_access(phase.access, 21, ordinal)
        self._compute_ops(phase)
        if phase.use_switch:
            self._switch()
        if phase.call_helper and helper_names:
            helper = helper_names[index % len(helper_names)]
            b.jsr(helper, ra=25)
        b.lda(21, 21, -1)
        b.bne(21, loop)
        b.label(exit_label)
        b.ldi(3, b.address_of(save))
        b.ld(26, 3, 0)
        b.ret(26)
        b.end_function()
        return name

    # -- whole program ---------------------------------------------------

    def build(self):
        spec = self.spec
        b = self.b

        footprint = b.alloc("footprint", spec.footprint_words,
                            init=[(i * 2654435761) % (1 << 32)
                                  for i in range(min(spec.footprint_words,
                                                     4096))])
        # Pointer-chase chain: a random cycle over the footprint's first
        # 1024 words so every chase load hops unpredictably.
        chase_nodes = min(1024, spec.footprint_words)
        order = list(range(chase_nodes))
        self.rng.shuffle(order)
        chain_init = [0] * chase_nodes
        for here, there in zip(order, order[1:] + order[:1]):
            chain_init[here] = 0  # placeholder; rewritten below
        chase = b.alloc("chase", chase_nodes)
        stack = b.alloc("stack", 256)
        b.alloc("chase_cursor", 1, init=[chase])

        # main --------------------------------------------------------
        b.begin_function("main")
        b.ldi(27, LCG_MULTIPLIER)
        b.ldi(28, LCG_INCREMENT)
        b.ldi(16, spec.seed * 2654435761 + 12345)
        b.ldi(29, 255)
        b.ldi(17, footprint)
        b.ldi(18, spec.footprint_words - 1)
        b.ldi(30, stack)
        b.ldi(5, 1)
        b.ldi(6, 2)
        b.ldi(9, chase)
        b.ldi(20, spec.outer_iterations)
        b.label("outer")
        for index in range(len(spec.phases)):
            b.jsr("phase_%d" % index, ra=26)
        if spec.recursion_depth > 0:
            b.ldi(1, spec.recursion_depth)
            b.jsr("recurse", ra=26)
        b.lda(20, 20, -1)
        b.bne(20, "outer")
        b.halt()
        b.end_function()

        # helpers / recursion / phases ---------------------------------
        helper_names = [self._emit_helper(i) for i in range(spec.helpers)]
        if spec.recursion_depth > 0:
            self._emit_recursion()
        for index, phase in enumerate(spec.phases):
            self._emit_phase(index, phase, helper_names)

        program = b.build(entry="main")
        # Fill in the chase chain now that addresses are fixed.
        for here, there in zip(order, order[1:] + order[:1]):
            program.initial_memory[chase + here * 8] = chase + there * 8
        return program


def build_synthetic(spec):
    """Generate the program described by *spec* (deterministic per seed)."""
    return _Generator(spec).build()
