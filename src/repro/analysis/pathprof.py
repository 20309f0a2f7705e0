"""Path-profile reconstruction from branch history (section 5.3, Figure 6).

Given a sampled PC and the Profiled Path Register (the directions of the
last H conditional branches), walk the CFG *backwards* enumerating path
segments consistent with the history bits.  Three schemes are compared,
exactly as in the paper:

* **execution counts** — ignore the history; at every merge point follow
  the predecessor edge with the highest profiled execution count (what a
  trace-scheduling compiler does with basic-block profiles);
* **history bits** — enumerate only paths whose conditional-branch
  directions match the captured history;
* **history bits + paired sampling** — additionally discard candidate
  paths that do not contain the PC of the other instruction in a paired
  sample taken a small, known fetch distance earlier.

A reconstruction *succeeds* when the analysis produces exactly one path
and that path is the true execution path.

Path/termination rules (shared by reconstruction and ground truth so the
comparison is exact):

* a path is a sequence of PCs ending at the sampled instruction;
* walking backwards, each conditional branch crossed consumes one history
  bit (bit 0 = most recent); the path is complete immediately after the
  H-th conditional branch is included;
* intraprocedural mode additionally completes at the enclosing function's
  entry and refuses to cross call/return boundaries;
* interprocedural mode walks through callee returns (descending into the
  callee's RETs) and through function entries (back to call sites), with
  a call-stack constraint matching returns to their call sites.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import AnalysisError
from repro.isa.cfg import (CALL, RETURN, ControlFlowGraph, edge_counts,
                           observed_indirect_targets)
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode

DEFAULT_MAX_STATES = 20000
DEFAULT_MAX_PATH = 512
DEFAULT_MAX_PATHS = 64


@dataclass
class ReconstructionResult:
    """Outcome of one backward reconstruction."""

    paths: List[Tuple[int, ...]]
    exploded: bool  # search hit a resource cap; treat as failure

    @property
    def unique(self):
        return not self.exploded and len(self.paths) == 1


class PathReconstructor:
    """Backward path analysis over one program + functional trace."""

    def __init__(self, program, trace, max_states=DEFAULT_MAX_STATES,
                 max_path=DEFAULT_MAX_PATH, max_paths=DEFAULT_MAX_PATHS):
        self.program = program
        self.trace = trace
        self.cfg = ControlFlowGraph(program,
                                    observed_indirect_targets(trace))
        self.edge_counts = edge_counts(trace)
        self.max_states = max_states
        self.max_path = max_path
        self.max_paths = max_paths
        self.history_before = self._compute_histories(trace)

    @staticmethod
    def _compute_histories(trace):
        """Global branch history (as an int) before each trace index."""
        histories = []
        history = 0
        for entry in trace:
            histories.append(history)
            if entry.inst.is_conditional:
                history = ((history << 1) | (1 if entry.taken else 0))
                history &= (1 << 30) - 1
        return histories

    # ------------------------------------------------------------------
    # Ground truth.

    def actual_path(self, index, bits, interprocedural):
        """The true backward path ending at trace[*index*]."""
        trace = self.trace
        path = [trace[index].pc]
        consumed = 0
        i = index
        while True:
            cur_pc = trace[i].pc
            if not interprocedural:
                entry = self.program.function_entry(cur_pc)
                if entry == cur_pc:
                    break
            if i == 0:
                break
            pred = trace[i - 1]
            if not interprocedural and pred.inst.op in (Opcode.RET,
                                                        Opcode.JSR):
                break
            path.append(pred.pc)
            i -= 1
            if pred.inst.is_conditional:
                consumed += 1
                if consumed == bits:
                    break
            if len(path) >= self.max_path:
                break
        return tuple(reversed(path))

    # ------------------------------------------------------------------
    # History-bits enumeration.

    def consistent_paths(self, pc, history, bits, interprocedural):
        """All paths ending at *pc* consistent with *history*.

        Returns a :class:`ReconstructionResult`; ``exploded`` is set when
        a resource cap was hit (treated as reconstruction failure, the
        conservative choice).
        """
        results = []
        exploded = False
        states = 0
        # DFS over (pc, consumed_bits, reversed_path, call_stack).
        work = [(pc, 0, (pc,), ())]
        while work:
            cur_pc, consumed, rpath, stack = work.pop()
            states += 1
            if states > self.max_states or len(results) > self.max_paths:
                exploded = True
                break
            if consumed >= bits or len(rpath) >= self.max_path:
                results.append(tuple(reversed(rpath)))
                continue
            if not interprocedural:
                entry = self.program.function_entry(cur_pc)
                if entry == cur_pc:
                    results.append(tuple(reversed(rpath)))
                    continue
            edges = self.cfg.predecessors(
                cur_pc, interprocedural=interprocedural)
            if not edges:
                # A true CFG boundary (program entry, or an intraprocedural
                # call boundary): the path is complete though short.
                results.append(tuple(reversed(rpath)))
                continue
            for edge in edges:
                new_consumed = consumed
                if edge.taken_bit is not None:
                    required = (history >> consumed) & 1
                    if edge.taken_bit != required:
                        continue  # contradicts the captured history
                    new_consumed = consumed + 1
                new_stack = stack
                if edge.kind == RETURN:
                    # Descending into the callee: remember which call site
                    # the callee's entry must eventually return to.
                    new_stack = stack + (cur_pc - INSTRUCTION_BYTES,)
                elif edge.kind == CALL:
                    if stack:
                        if edge.pred != stack[-1]:
                            continue  # contradicts the call stack
                        new_stack = stack[:-1]
                work.append((edge.pred, new_consumed,
                             rpath + (edge.pred,), new_stack))
            # Predecessors existed but every edge contradicted the history
            # or the call stack: this partial path is impossible, discard.
        return ReconstructionResult(paths=results, exploded=exploded)

    # ------------------------------------------------------------------
    # Execution-counts scheme.

    def most_likely_path(self, pc, bits, interprocedural):
        """Greedy backward walk following the hottest predecessor edge."""
        rpath = [pc]
        consumed = 0
        stack = ()
        cur_pc = pc
        while consumed < bits and len(rpath) < self.max_path:
            if not interprocedural:
                entry = self.program.function_entry(cur_pc)
                if entry == cur_pc:
                    break
            expected = stack[-1] if stack else None
            edges = self.cfg.predecessors(
                cur_pc, interprocedural=interprocedural,
                expected_call_site=expected)
            if not edges:
                break
            best = max(edges,
                       key=lambda e: (self.edge_counts.get(
                           (e.pred, cur_pc), 0), -e.pred))
            if edge_is_dead(best, self.edge_counts, cur_pc):
                break
            if best.taken_bit is not None:
                consumed += 1
            if best.kind == RETURN:
                stack = stack + (cur_pc - INSTRUCTION_BYTES,)
            elif best.kind == CALL and stack:
                stack = stack[:-1]
            rpath.append(best.pred)
            cur_pc = best.pred
        return tuple(reversed(rpath))

    # ------------------------------------------------------------------
    # The three schemes, evaluated at one trace index.

    def evaluate_at(self, index, bits, interprocedural, paired_pc=None):
        """Success of each scheme for the sample at trace[*index*].

        *paired_pc* is the PC of the earlier member of a paired sample,
        or None (the paired scheme is then reported as the plain
        history-bits outcome).  Returns a dict scheme-name -> bool.
        """
        target_pc = self.trace[index].pc
        history = self.history_before[index]
        truth = self.actual_path(index, bits, interprocedural)

        likely = self.most_likely_path(target_pc, bits, interprocedural)
        counts_ok = likely == truth

        result = self.consistent_paths(target_pc, history, bits,
                                       interprocedural)
        history_ok = result.unique and result.paths[0] == truth

        paired_ok = history_ok
        if paired_pc is not None and not result.exploded:
            filtered = [p for p in result.paths if paired_pc in p]
            # Only apply the filter when it leaves candidates: when the
            # pair distance exceeds the path length the other PC is
            # legitimately absent and the filter carries no information.
            candidates = filtered if filtered else result.paths
            paired_ok = len(candidates) == 1 and candidates[0] == truth
        return {
            "execution_counts": counts_ok,
            "history_bits": history_ok,
            "history_plus_pair": paired_ok,
        }


def edge_is_dead(edge, counts, at_pc):
    """True if the chosen hottest edge was never executed.

    The execution-counts scheme cannot justify walking over an edge with
    zero profiled executions; the greedy walk stops there.
    """
    return counts.get((edge.pred, at_pc), 0) == 0


def run_reconstruction_experiment(program, trace, history_lengths,
                                  sample_indices, pair_rng=None,
                                  pair_window=50, interprocedural=False,
                                  reconstructor=None):
    """Figure 6 experiment: success rates per scheme per history length.

    Args:
        program, trace: the workload and its functional trace.
        history_lengths: iterable of H values to evaluate.
        sample_indices: trace indices to treat as sampled instructions.
        pair_rng: SamplingRng for choosing the paired instruction's
            distance (uniform in [1, pair_window] retired instructions
            before the sample); None disables the paired scheme's filter.
        interprocedural: which Figure 6 panel to compute.

    Returns dict H -> {scheme: success_rate}.
    """
    recon = reconstructor or PathReconstructor(program, trace)
    results = {}
    for bits in history_lengths:
        tallies = {"execution_counts": 0, "history_bits": 0,
                   "history_plus_pair": 0}
        evaluated = 0
        for index in sample_indices:
            if index <= 0 or index >= len(trace):
                raise AnalysisError("sample index %d out of range" % index)
            paired_pc = None
            if pair_rng is not None:
                distance = pair_rng.pair_distance(pair_window)
                paired_index = index - distance
                if paired_index >= 0:
                    paired_pc = trace[paired_index].pc
            outcome = recon.evaluate_at(index, bits, interprocedural,
                                        paired_pc=paired_pc)
            evaluated += 1
            for scheme, ok in outcome.items():
                if ok:
                    tallies[scheme] += 1
        results[bits] = {scheme: count / evaluated
                         for scheme, count in tallies.items()}
    return results
