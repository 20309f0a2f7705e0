"""Natural-loop detection over the forward CFG.

Section 3 of the paper: profiles should summarize behaviour over "an
individual program, a procedure, or a smaller unit such as a loop".
Procedures come from the builder's function extents; loops need analysis:

1. build the forward CFG at instruction granularity (successor edges of
   every direct control transfer; indirect edges from a trace when
   provided);
2. compute dominators per function (iterative data-flow, in reverse
   post-order);
3. find back edges (``t -> h`` where ``h`` dominates ``t``) and collect
   each natural loop's body by backward reachability from the tail.

Loops sharing a header are merged (standard practice), and nesting is
reported by body containment.
"""

from dataclasses import dataclass, field
from typing import List, Set

from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode


def forward_edges(program, observed_indirect=None):
    """Successor map ``pc -> [next_pc, ...]`` within each function.

    Call edges are *not* followed (a JSR's successor for loop purposes
    is its return point), matching how programmers think of loops.
    RET/HALT have no intra-function successors; JMP uses observed
    targets when given.
    """
    observed_indirect = observed_indirect or {}
    successors = {}
    for index, inst in enumerate(program.instructions):
        pc = index * INSTRUCTION_BYTES
        next_pc = pc + INSTRUCTION_BYTES
        op = inst.op
        if op in (Opcode.RET, Opcode.HALT):
            successors[pc] = []
        elif op is Opcode.BR:
            successors[pc] = [inst.target]
        elif inst.is_conditional:
            successors[pc] = [inst.target, next_pc]
        elif op is Opcode.JMP:
            successors[pc] = sorted(observed_indirect.get(pc, ()))
        else:  # sequential flow; JSR falls through to its return point
            successors[pc] = [next_pc] if program.contains_pc(next_pc) \
                else []
    return successors


def _reverse_post_order(entry, successors, extent):
    start, end = extent
    order = []
    visited = set()
    stack = [(entry, iter(successors.get(entry, ())))]
    visited.add(entry)
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if start <= child < end and child not in visited:
                visited.add(child)
                stack.append((child, iter(successors.get(child, ()))))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def dominators(entry, successors, extent):
    """Immediate-dominator-free dominator sets (iterative data-flow).

    Returns ``pc -> frozenset of dominating pcs`` for nodes reachable
    from *entry* within *extent*.
    """
    order = _reverse_post_order(entry, successors, extent)
    reachable = set(order)
    preds = {node: [] for node in order}
    start, end = extent
    for node in order:
        for succ in successors.get(node, ()):
            if succ in reachable:
                preds[succ].append(node)

    dom = {node: reachable for node in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in order:
            if node == entry:
                continue
            node_preds = [p for p in preds[node] if p in dom]
            if not node_preds:
                continue
            new = set.intersection(*(set(dom[p]) for p in node_preds))
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return {node: frozenset(d) for node, d in dom.items()}


@dataclass
class NaturalLoop:
    """One natural loop (back edges merged per header)."""

    function: str
    header: int
    back_edges: List[int] = field(default_factory=list)  # tail pcs
    body: Set[int] = field(default_factory=set)  # pcs, includes header

    @property
    def size(self):
        return len(self.body)

    def contains(self, other):
        """True if *other* nests (strictly) inside this loop."""
        return other.header != self.header and other.body <= self.body

    def __repr__(self):
        return ("NaturalLoop(%s, header=%#x, body=%d insts)"
                % (self.function, self.header, len(self.body)))


def find_loops(program, observed_indirect=None):
    """All natural loops, per function.  Returns [NaturalLoop, ...]."""
    successors = forward_edges(program, observed_indirect)
    loops = {}
    for name, (start, end) in program.functions.items():
        dom = dominators(start, successors, (start, end))
        preds = {}
        for node in dom:
            for succ in successors.get(node, ()):
                if succ in dom:
                    preds.setdefault(succ, []).append(node)
        for tail in dom:
            for head in successors.get(tail, ()):
                if head in dom and head in dom[tail]:
                    # tail -> head is a back edge: head dominates tail.
                    loop = loops.get((name, head))
                    if loop is None:
                        loop = NaturalLoop(function=name, header=head)
                        loop.body.add(head)
                        loops[(name, head)] = loop
                    loop.back_edges.append(tail)
                    # Body: backward reachability from the tail, stopping
                    # at the header.
                    work = [tail]
                    while work:
                        node = work.pop()
                        if node in loop.body:
                            continue
                        loop.body.add(node)
                        work.extend(p for p in preds.get(node, ())
                                    if p not in loop.body)
    return sorted(loops.values(), key=lambda l: (l.function, l.header))


def loop_of_pc(loops, pc):
    """The innermost loop containing *pc*, or None."""
    best = None
    for loop in loops:
        if pc in loop.body:
            if best is None or loop.size < best.size:
                best = loop
    return best
