"""Decoded-basic-block trace cache for the functional fast-forward.

The functional fast-forward (`repro.cpu.warm.fast_forward`) dominates
two-speed wall clock: per instruction it pays a `Program.fetch`, an
indirect `exec_fn` call, a full :meth:`WarmState.observe`, and a PC
write-back.  Almost all of that work is *statically determined* by the
instruction bytes — only the register values change between visits to
the same PC.  This module exploits that: straight-line runs of
instructions are decoded **once** into a block, compiled to one fused
Python function, and re-dispatched on every revisit with a single dict
lookup (``fast_forward`` revalidates ``program.version`` once per call).

A fused block function:

* reads/writes the register list and memory dict directly (the zero
  register is safe to read: ``RegisterFile`` maintains ``_values[31] ==
  0`` as an invariant);
* performs exactly the warm-state updates :meth:`WarmState.observe`
  would make for the same retired stream — I-fetch per 64-byte line
  crossing (crossings inside a block are compile-time constants; only
  the entry fetch needs a runtime check), D-side accesses in program
  order, and predictor/GHR updates at the terminator;
* does the common case of that warming without a Python call.  An
  access whose page is already MRU in its TLB and whose line is already
  MRU in its L1 set changes nothing but the two ``hits`` counters, so
  the block checks for exactly that case inline (reading the MRU-first
  lists, shifts and masks of the hierarchy in its prologue) and calls
  ``hier.ifetch``/``dread``/``dwrite`` only otherwise.  A conditional
  makes one ``direction.observe`` call (predict, train and outcome
  count together) and shifts ``ghr.value``/``ghr.shifted`` in place;
* computes signed compares as unsigned compares of the operands XOR
  ``1 << 63`` and ``MUL`` as the unsigned product mod 2**64 (congruent
  to the signed one), so only ``FDIV`` calls ``to_signed``;
* raises the same :class:`SimulationError` (same message, same
  architectural state) as the per-instruction path for a wild indirect
  jump, *before* any warm-state update for the faulting instruction.

Blocks never contain a sampling point: ``fast_forward`` only invokes a
block when its whole length fits in the instruction budget it was
given, and the functional profiler asks for one instruction less than
the sampling countdown, then steps the sampled instruction itself.

Sharing and invalidation: :func:`blocks` keeps one dict per live
``Program`` object (keyed by ``id``, dropped by ``weakref.finalize``
when the program dies, nothing stored on the program), so every run of
a program reuses the blocks the first one compiled; a block reads the
geometry of the warm state it is handed, so one dict serves every
configuration.  :func:`blocks` drops every block when
``program.version`` moved; all in-place ``Program`` mutators bump it
(see ``repro.isa.program``), so a patched program never executes a
stale block.

Semantic equivalence with the reference interpreter is pinned by
``tests/cpu/test_tracecache.py`` (including a hypothesis property over
generated programs) and the invalidation contract by
``tests/cpu/test_tracecache_invalidation.py``.
"""

import weakref

from repro.errors import SimulationError
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import CONDITIONAL_BRANCHES, Opcode
from repro.isa.registers import ZERO_REG
from repro.utils.bitops import to_signed, to_unsigned

# Longest fused block, in instructions.  Bounds compile time per block
# and the countdown slack the profiler needs before taking the fused
# path; straight-line runs longer than this split into chained blocks.
MAX_BLOCK = 64

_LINE_SHIFT = 6  # 64-byte I-fetch lines (matches WarmState.observe)
_M = "0xFFFFFFFFFFFFFFFF"  # 64-bit word mask, as a source literal
_EA = "0xFFFFFFFFFFFFFFF8"  # to_unsigned(x) & ~7: effective addresses
_PCMASK = "0xFFFFFFFFFFFFFFFC"  # to_unsigned(x) & ~3: indirect targets
# x ^ _SIGN maps the signed order of 64-bit words onto the unsigned one.
_SIGN = "0x8000000000000000"


class DecodedBlock:
    """One decoded run of instructions starting at ``entry``.

    ``fused`` is the compiled block function
    ``fused(state, warm, budget) -> retired_count`` or None when
    the first instruction cannot be fused (callers fall back to the
    per-instruction path for one step).  ``length`` is the instruction
    count of one pass through the block; callers must ensure ``length <=
    budget`` before calling ``fused``.  Self-looping blocks re-enter
    themselves while another full pass fits in ``budget``, so one call
    can retire many multiples of ``length``.
    """

    __slots__ = ("entry", "length", "fused", "source")

    def __init__(self, entry, length, fused, source=None):
        self.entry = entry
        self.length = length
        self.fused = fused
        self.source = source


# id(program) -> [version, {entry_pc: DecodedBlock}]; see blocks().
_CACHES = {}


def blocks(program):
    """The shared ``{entry_pc: DecodedBlock}`` dict of *program*.

    Drops every block if ``program.version`` changed since the last
    call.  A caller that cannot mutate the program while it runs (one
    :func:`repro.cpu.warm.fast_forward` call) revalidates once and then
    reads the dict directly, storing :func:`compile_block` output for a
    missing entry.
    """
    key = id(program)
    entry = _CACHES.get(key)
    if entry is None:
        entry = _CACHES[key] = [program.version, {}]
        # Runs when the program is collected, before its id can be
        # reused by another object.
        weakref.finalize(program, _CACHES.pop, key, None)
    elif entry[0] != program.version:
        # Mutated through a registered mutator: every decoded block may
        # now be stale.
        entry[0] = program.version
        entry[1].clear()
    return entry[1]


# ----------------------------------------------------------------------
# Decode: walk forward from an entry PC collecting fusable instructions.

_ALU_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SLL, Opcode.SRL, Opcode.CMPLT, Opcode.CMPEQ, Opcode.CMPLE,
    Opcode.LDA, Opcode.LDI, Opcode.MUL,
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
})
_MEMORY_OPS = frozenset({Opcode.LD, Opcode.ST, Opcode.PREFETCH})


def _classify(program, pc, inst):
    """How *inst* participates in a block.

    Returns ``"line"`` (straight-line member), a terminator kind
    (``"halt"``, ``"cond"``, ``"br"``, ``"jsr"``, ``"jmp"``, ``"ret"``),
    or ``"bad"`` for instructions whose per-instruction execution would
    raise (malformed operands, statically invalid branch targets): those
    stay on the interpreter path so the error surfaces identically.
    """
    op = inst.op
    if op in _ALU_OPS:
        return "line" if inst.dest is not None else "bad"
    if op is Opcode.LD:
        return "line" if (inst.src1 is not None
                          and inst.dest is not None) else "bad"
    if op is Opcode.ST:
        return "line" if (inst.src1 is not None
                          and inst.src2 is not None) else "bad"
    if op is Opcode.PREFETCH:
        return "line" if inst.src1 is not None else "bad"
    if op is Opcode.NOP:
        return "line"
    if op is Opcode.HALT:
        return "halt"
    if op in CONDITIONAL_BRANCHES:
        if inst.target is None or not program.contains_pc(inst.target):
            return "bad"
        if not program.contains_pc(pc + INSTRUCTION_BYTES):
            return "bad"  # fall-through off the end: let fetch() raise
        return "cond"
    if op is Opcode.BR:
        if inst.target is None or not program.contains_pc(inst.target):
            return "bad"
        return "br"
    if op is Opcode.JSR:
        if inst.target is None or not program.contains_pc(inst.target):
            return "bad"
        if inst.dest is None:
            return "bad"
        return "jsr"
    if op is Opcode.JMP:
        return "jmp"
    if op is Opcode.RET:
        return "ret"
    return "bad"


def _reg(index):
    """Source-register read expression (R31 and absent operands are 0)."""
    if index is None or index == ZERO_REG:
        return "0"
    return "vals[%d]" % index


def _alu_lines(inst):
    """Source lines computing one ALU-class instruction in place."""
    op = inst.op
    dest = inst.dest_reg
    if dest is None:
        return []  # destination is R31: architecturally a no-op
    a = _reg(inst.src1)
    b = _reg(inst.src2)
    d = "vals[%d]" % dest
    if op is Opcode.ADD or op is Opcode.FADD:
        return ["%s = (%s + %s) & %s" % (d, a, b, _M)]
    if op is Opcode.SUB or op is Opcode.FSUB:
        return ["%s = (%s - %s) & %s" % (d, a, b, _M)]
    if op is Opcode.AND:
        return ["%s = %s & %s" % (d, a, b)]
    if op is Opcode.OR:
        return ["%s = %s | %s" % (d, a, b)]
    if op is Opcode.XOR:
        return ["%s = %s ^ %s" % (d, a, b)]
    if op is Opcode.SLL:
        return ["%s = (%s << %d) & %s" % (d, a, inst.imm & 63, _M)]
    if op is Opcode.SRL:
        return ["%s = %s >> %d" % (d, a, inst.imm & 63)]
    if op is Opcode.CMPLT:
        return ["%s = 1 if (%s ^ %s) < (%s ^ %s) else 0"
                % (d, a, _SIGN, b, _SIGN)]
    if op is Opcode.CMPEQ:
        return ["%s = 1 if %s == %s else 0" % (d, a, b)]
    if op is Opcode.CMPLE:
        return ["%s = 1 if (%s ^ %s) <= (%s ^ %s) else 0"
                % (d, a, _SIGN, b, _SIGN)]
    if op is Opcode.LDA:
        return ["%s = (%s + (%d)) & %s" % (d, a, inst.imm, _M)]
    if op is Opcode.LDI:
        return ["%s = %d" % (d, to_unsigned(inst.imm))]
    if op is Opcode.MUL or op is Opcode.FMUL:
        # The unsigned product is congruent to the signed one mod 2**64.
        return ["%s = (%s * %s) & %s" % (d, a, b, _M)]
    if op is Opcode.FDIV:
        return [
            "b = S(%s)" % b,
            "%s = 0 if b == 0 else (S(%s) // b) & %s" % (d, a, _M),
        ]
    raise AssertionError("unhandled ALU opcode %s" % op)


_COND_EXPR = {
    # Conditions on the *unsigned* register value (what vals[] holds).
    Opcode.BEQ: "%s == 0",
    Opcode.BNE: "%s != 0",
    Opcode.BLT: "%s > 0x7FFFFFFFFFFFFFFF",  # sign bit set
    Opcode.BGE: "%s <= 0x7FFFFFFFFFFFFFFF",  # sign bit clear
}


def compile_block(program, entry):
    """Decode and compile the block starting at byte address *entry*."""
    insts = []
    pcs = []
    terminator = None
    pc = entry
    while True:
        inst = program.fetch_or_none(pc)
        if inst is None:
            break  # ran off the program: truncate, let the caller fault
        kind = _classify(program, pc, inst)
        if kind == "bad":
            break  # truncate before it; interpreter path raises exactly
        insts.append(inst)
        pcs.append(pc)
        if kind != "line":
            terminator = kind
            break
        pc += INSTRUCTION_BYTES
        if len(insts) >= MAX_BLOCK:
            break
    if not insts:
        return DecodedBlock(entry, 1, None)
    source = _generate(program, entry, insts, pcs, terminator)
    namespace = {"S": to_signed, "SimulationError": SimulationError}
    code = compile(source, "<tracecache %s@%#x>" % (program.name, entry),
                   "exec")
    exec(code, namespace)
    return DecodedBlock(entry, len(insts), namespace["run"], source)


def _ifetch_lines(pcs, index):
    """I-fetch for instruction *index*, per the line-cursor rules."""
    pc = pcs[index]
    line = pc >> _LINE_SHIFT
    fetch = _hit_or("i", str(pc), "hier.ifetch(%d)" % pc)
    if index == 0:
        # Only the entry crossing depends on caller state.
        return (["if warm.last_fetch_line != %d:" % line]
                + ["    " + text for text in fetch])
    if line != (pcs[index - 1] >> _LINE_SHIFT):
        return fetch
    return []


def _side_prologue(side):
    """Bind one side's TLB and L1 (``side`` "i" or "d") to locals.

    Read per call, not baked in: one block may serve warm states
    built from different ``HierarchyConfig`` geometries.
    """
    return [
        "{s}tlb = hier.{s}tlb".format(s=side),
        "{s}tp = {s}tlb._pages".format(s=side),
        "{s}tsh = {s}tlb._page_shift".format(s=side),
        "{s}l1 = hier.l1{s}".format(s=side),
        "{s}sets = {s}l1._sets".format(s=side),
        "{s}lsh = {s}l1._line_shift".format(s=side),
        "{s}msk = {s}l1._set_mask".format(s=side),
    ]


def _hit_or(side, addr, fallback):
    """One cache access: the inline MRU hit, else the *fallback* call.

    A page already MRU in the TLB and a line already MRU in its L1 set
    is a hit that changes nothing but the two ``hits`` counters, so the
    block bumps them itself.  Every other case (a TLB or L1 miss, or a
    hit that reorders an LRU list) goes through the hierarchy call,
    which repeats the whole lookup from scratch.
    """
    return [
        "ln = {a} >> {s}lsh".format(a=addr, s=side),
        "ws = {s}sets[ln & {s}msk]".format(s=side),
        "if {s}tp and {s}tp[0] == {a} >> {s}tsh and ws and ws[0] == ln:"
        .format(a=addr, s=side),
        "    {s}tlb.hits += 1".format(s=side),
        "    {s}l1.hits += 1".format(s=side),
        "else:",
        "    " + fallback,
    ]


def _generate(program, entry, insts, pcs, terminator):
    """Emit the fused function source for one decoded block."""
    last = insts[-1]
    # A conditional whose taken target is the block entry is a self
    # loop: chain iterations inside the call while the budget allows,
    # saving the dispatch (and the Python call) per iteration.
    looping = terminator == "cond" and last.target == entry
    body = []  # lines inside the (possibly looping) block body

    for index, inst in enumerate(insts[:-1] if terminator else insts):
        body.extend(_ifetch_lines(pcs, index))
        body.extend(_straight_line(inst))

    if terminator is None:
        # Truncated block (MAX_BLOCK or end of image): plain fall-off.
        exit_pc = pcs[-1] + INSTRUCTION_BYTES
        body.append("state.pc = %d" % exit_pc)
        body.append("warm.last_fetch_line = %d"
                    % (pcs[-1] >> _LINE_SHIFT))
        body.append("return %d" % len(insts))
    else:
        body.extend(_terminator(program, insts, pcs, terminator, looping))

    lines = [
        "def run(state, warm, budget):",
        "    vals = state.regs._values",
        "    hier = warm.hierarchy",
    ]
    prologue = _side_prologue("i")
    if any(inst.op in _MEMORY_OPS for inst in insts):
        prologue.append("words = state.memory._words")
        prologue.extend(_side_prologue("d"))
    if terminator in ("jsr", "jmp", "ret"):
        prologue.append("pred = warm.predictor")
    elif terminator == "cond":
        prologue.append("dobs = warm.predictor.direction.observe")
        prologue.append("ghr = warm.ghr")
        prologue.append("gmsk = ghr._mask")
    lines.extend("    " + line for line in prologue)
    if looping:
        lines.append("    done = 0")
        lines.append("    while True:")
        lines.extend("        " + line for line in body)
    else:
        lines.extend("    " + line for line in body)
    return "\n".join(lines) + "\n"


def _straight_line(inst):
    """Source lines for one non-terminator instruction."""
    op = inst.op
    if op is Opcode.NOP:
        return []
    if op not in _MEMORY_OPS:
        return _alu_lines(inst)
    lines = ["ea = (%s + (%d)) & %s" % (_reg(inst.src1), inst.imm, _EA)]
    if op is Opcode.ST:
        lines.append("words[ea] = %s" % _reg(inst.src2))
        return lines + _hit_or("d", "ea", "hier.dwrite(ea)")
    if op is Opcode.LD and inst.dest_reg is not None:
        lines.append("vals[%d] = words.get(ea, 0)" % inst.dest_reg)
    return lines + _hit_or("d", "ea", "hier.dread(ea)")


def _terminator(program, insts, pcs, kind, looping):
    """Source lines for the block's terminating instruction."""
    inst = insts[-1]
    pc = pcs[-1]
    index = len(insts) - 1
    count = len(insts)
    line = pc >> _LINE_SHIFT

    out = []
    if kind == "halt":
        out.extend(_ifetch_lines(pcs, index))
        out.append("state.halted = True")
        out.append("state.pc = %d" % (pc + INSTRUCTION_BYTES))
        out.append("warm.last_fetch_line = %d" % line)
        out.append("return %d" % count)
        return out

    if kind == "br":
        out.extend(_ifetch_lines(pcs, index))
        out.append("state.pc = %d" % inst.target)
        out.append("warm.last_fetch_line = None")
        out.append("return %d" % count)
        return out

    if kind == "jsr":
        out.extend(_ifetch_lines(pcs, index))
        ret_addr = pc + INSTRUCTION_BYTES
        if inst.dest_reg is not None:
            out.append("vals[%d] = %d" % (inst.dest_reg, ret_addr))
        out.append("pred.ras.push(%d)" % ret_addr)
        out.append("state.pc = %d" % inst.target)
        out.append("warm.last_fetch_line = None")
        out.append("return %d" % count)
        return out

    if kind in ("jmp", "ret"):
        # Execute (and possibly fault) *before* this instruction's
        # I-fetch: the per-instruction path raises out of exec_fn before
        # observe() ever runs, so no warm state may move on the fault.
        out.append("t = %s & %s" % (_reg(inst.src1), _PCMASK))
        out.append("if t >= %d:" % program.pc_limit)
        out.append("    state.pc = %d" % pc)
        out.append('    raise SimulationError('
                   '"control transfer from %s to invalid PC %%#x" %% t)'
                   % ("%#x" % pc))
        out.extend(_ifetch_lines(pcs, index))
        if kind == "jmp":
            out.append("pred.train_indirect(%d, t)" % pc)
        else:
            out.append("pred.ras.pop()")
        out.append("state.pc = t")
        out.append("warm.last_fetch_line = None")
        out.append("return %d" % count)
        return out

    assert kind == "cond"
    out.extend(_ifetch_lines(pcs, index))
    # One direction-predictor call (predict + train + record_outcome),
    # then GlobalHistoryRegister.push spelled out on its two fields.
    out.append("taken = %s" % (_COND_EXPR[inst.op] % _reg(inst.src1)))
    out.append("h = ghr.value")
    out.append("dobs(%d, h, taken)" % pc)
    out.append("ghr.value = ((h << 1) | taken) & gmsk")
    out.append("ghr.shifted += 1")
    out.append("warm.last_fetch_line = None")
    if looping:
        out.append("done += %d" % count)
        out.append("if taken:")
        out.append("    if budget - done >= %d:" % count)
        out.append("        continue")
        out.append("    state.pc = %d" % inst.target)
        out.append("else:")
        out.append("    state.pc = %d" % (pc + INSTRUCTION_BYTES))
        out.append("return done")
    else:
        out.append("if taken:")
        out.append("    state.pc = %d" % inst.target)
        out.append("else:")
        out.append("    state.pc = %d" % (pc + INSTRUCTION_BYTES))
        out.append("return %d" % count)
    return out
