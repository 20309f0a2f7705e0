"""Section 7: profile-guided optimizations actually applied and measured.

The paper sketches optimizations ProfileMe data could drive; this
benchmark closes the loop on two of them, end to end:

* **code layout** — profile I-cache misses, reorder functions hot-first,
  re-run, measure the miss and cycle reduction;
* **prefetch insertion** — profile D-cache misses, classify loads
  (Abraham & Rau), insert PREFETCH instructions ahead of strided missing
  loads, re-run, measure the speedup.

Both transformations must preserve architectural results exactly.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.optimize import (insert_prefetches,
                                     layout_order_from_profile,
                                     plan_prefetches, reorder_functions)
from repro.analysis.reports import format_table
from repro.cpu.config import MachineConfig
from repro.engine.session import SessionSpec, run_session
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import stall_kernel


def _scattered_program(iterations):
    """Hot functions interleaved with cold pads (layout experiment)."""
    b = ProgramBuilder(name="scattered")
    b.begin_function("main")
    b.ldi(1, iterations)
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


def _layout_experiment(scale):
    program = _scattered_program(iterations=120 * scale)
    config = MachineConfig.alpha21264_like(memory=HierarchyConfig(
        l1i=CacheConfig(name="l1i", size_bytes=2048, line_bytes=64,
                        associativity=1)))
    profile = ProfileMeConfig(mean_interval=20, seed=3)
    before = run_session(SessionSpec(
        program=program, config=config, profile=profile))
    order = layout_order_from_profile(before.database, program)
    improved = reorder_functions(program, order)
    after = run_session(SessionSpec(
        program=improved, config=config, profile=profile))
    assert after.core.retired == before.core.retired
    return {
        "before_cycles": before.cycles,
        "after_cycles": after.cycles,
        "before_misses": before.core.hierarchy.l1i.misses,
        "after_misses": after.core.hierarchy.l1i.misses,
    }


def _prefetch_experiment(scale):
    program = stall_kernel("dcache_miss", iterations=500 * scale)
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=25, seed=5)))
    plans = plan_prefetches(program, run.database, lookahead=8)
    improved = insert_prefetches(program, plans)

    ref = Interpreter(program)
    ref.run_to_halt()
    got = Interpreter(improved)
    got.run_to_halt()
    assert got.state.regs.snapshot() == ref.state.regs.snapshot()

    after = run_session(SessionSpec(
        program=improved, profile=ProfileMeConfig(mean_interval=25, seed=5)))
    return {
        "plans": len(plans),
        "before_cycles": run.cycles,
        "after_cycles": after.cycles,
        "before_ipc": run.core.ipc,
        "after_ipc": after.core.ipc,
    }


def test_sec7_optimizations(benchmark):
    scale = bench_scale()
    layout, prefetch = run_once(
        benchmark,
        lambda: (_layout_experiment(scale), _prefetch_experiment(scale)))

    print("\n=== Section 7: applied optimizations ===")
    print(format_table(
        ["experiment", "before cycles", "after cycles", "speedup",
         "detail"],
        [["code layout", layout["before_cycles"], layout["after_cycles"],
          "%.2fx" % (layout["before_cycles"] / layout["after_cycles"]),
          "I-misses %d -> %d" % (layout["before_misses"],
                                 layout["after_misses"])],
         ["prefetching", prefetch["before_cycles"],
          prefetch["after_cycles"],
          "%.2fx" % (prefetch["before_cycles"] / prefetch["after_cycles"]),
          "IPC %.2f -> %.2f (%d prefetches planned)"
          % (prefetch["before_ipc"], prefetch["after_ipc"],
             prefetch["plans"])]]))

    assert layout["after_misses"] < 0.5 * layout["before_misses"]
    assert layout["after_cycles"] < layout["before_cycles"]
    assert prefetch["plans"] >= 1
    assert prefetch["after_cycles"] < 0.8 * prefetch["before_cycles"]
