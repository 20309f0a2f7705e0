"""Profile-guided code layout: close the optimization loop (section 7).

Profiles a program whose hot functions are scattered between cold pads on
a small instruction cache, uses the sampled I-cache misses to choose a
hot-first function order, *applies* the reordering (relocating code and
relinking branch targets), and re-measures — demonstrating the section 7
claim that ProfileMe data can drive real optimizations.

Run:  python examples/layout_optimizer.py
"""

from repro.analysis.optimize import (function_heat,
                                     layout_order_from_profile,
                                     reorder_functions)
from repro.cpu.config import MachineConfig
from repro.engine.session import SessionSpec, run_session
from repro.isa import ProgramBuilder
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.profileme import ProfileMeConfig


def scattered_program():
    """Three hot functions interleaved with cold pads of ~one cache span."""
    b = ProgramBuilder(name="scattered")
    b.begin_function("main")
    b.ldi(1, 120)
    for name in ("cold_0", "cold_1", "cold_2"):
        b.jsr(name, ra=26)
    b.label("outer")
    for name in ("hot_0", "hot_1", "hot_2"):
        b.jsr(name, ra=26)
    b.lda(1, 1, -1)
    b.bne(1, "outer")
    b.halt()
    b.end_function()
    for index in range(3):
        b.begin_function("hot_%d" % index)
        for _ in range(35):
            b.add(3, 3, 1)
            b.xor(4, 4, 3)
            b.lda(5, 5, 1)
            b.or_(6, 6, 4)
        b.ret(26)
        b.end_function()
        b.begin_function("cold_%d" % index)
        b.nop(380)
        b.ret(26)
        b.end_function()
    return b.build(entry="main")


def main():
    program = scattered_program()
    config = MachineConfig.alpha21264_like(memory=HierarchyConfig(
        l1i=CacheConfig(name="l1i", size_bytes=2048, line_bytes=64,
                        associativity=1)))
    profile = ProfileMeConfig(mean_interval=20, seed=3)

    before = run_session(SessionSpec(
        program=program, config=config, profile=profile))
    print("Baseline: %d cycles, %d I-cache misses"
          % (before.cycles, before.core.hierarchy.l1i.misses))

    print("\nSampled I-cache misses per function:")
    for name, count in function_heat(before.database, program):
        print("  %-8s %4d miss samples" % (name, count))

    order = layout_order_from_profile(before.database, program)
    print("\nChosen layout order: %s" % ", ".join(order))
    improved = reorder_functions(program, order)

    after = run_session(SessionSpec(
        program=improved, config=config, profile=profile))
    print("\nAfter reordering: %d cycles, %d I-cache misses"
          % (after.cycles, after.core.hierarchy.l1i.misses))
    assert after.core.retired == before.core.retired
    print("Speedup: %.2fx, I-cache misses reduced by %.0f%%"
          % (before.cycles / after.cycles,
             100 * (1 - after.core.hierarchy.l1i.misses
                    / before.core.hierarchy.l1i.misses)))


if __name__ == "__main__":
    main()
