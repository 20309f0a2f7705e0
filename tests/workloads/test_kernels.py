"""Tests for the classic kernel library.

Each kernel carries a Python-side expected result; running it through
the reference interpreter *and* the out-of-order core and matching both
against the expectation is a three-way consistency check on the ISA,
builder, and timing model.
"""

import pytest

from repro.cpu.ooo.core import OutOfOrderCore
from repro.errors import ProgramError
from repro.isa.interpreter import Interpreter
from repro.workloads.kernels import classic_kernel, classic_kernel_names


def run_both(program):
    interp = Interpreter(program)
    interp.run_to_halt(max_instructions=2_000_000)
    core = OutOfOrderCore(program)
    core.run()
    assert core.architectural_registers() == interp.state.regs.snapshot()
    return interp.state.regs.read(3)


def test_kernel_registry():
    names = classic_kernel_names()
    assert "daxpy" in names
    assert len(names) == 6
    with pytest.raises(ProgramError, match="unknown kernel"):
        classic_kernel("quicksort")


@pytest.mark.parametrize("name", classic_kernel_names())
def test_kernel_matches_expected(name):
    program, expected = classic_kernel(name)
    assert run_both(program) == expected


class TestKernelSignatures:
    """Each kernel must exhibit its textbook bottleneck."""

    def test_pointer_chase_is_latency_bound(self):
        program, _ = classic_kernel("pointer_chase", nodes=2048, hops=2000)
        core = OutOfOrderCore(program)
        core.run()
        assert core.ipc < 0.5  # serial loads dominate

    def test_daxpy_outruns_pointer_chase(self):
        # daxpy's iterations pipeline (bounded by the conservative
        # store-to-load ordering of the LSQ); the chase cannot pipeline
        # at all.
        program, _ = classic_kernel("daxpy", n=512)
        core = OutOfOrderCore(program)
        core.run()
        assert core.ipc > 0.35
        chase, _ = classic_kernel("pointer_chase", nodes=4096, hops=2000)
        chase_core = OutOfOrderCore(chase)
        chase_core.run()
        assert core.ipc > 1.5 * chase_core.ipc

    def test_binary_search_mispredicts(self):
        program, _ = classic_kernel("binary_search", size=1024,
                                    searches=150)
        core = OutOfOrderCore(program)
        core.run()
        assert core.mispredicts > 100  # data-dependent directions

    def test_column_major_misses_more(self):
        # The column-major layout conflicts in a small L1: far more
        # misses.  The out-of-order window then *hides* the L2-hit
        # latency behind the accumulator chain (cycles end up close),
        # while the stall-on-use in-order machine pays for every miss —
        # the motivating observation of the whole paper in one kernel.
        from repro.cpu.config import MachineConfig
        from repro.cpu.inorder.core import InOrderCore
        from repro.mem.cache import CacheConfig
        from repro.mem.hierarchy import HierarchyConfig

        memory = HierarchyConfig(
            l1d=CacheConfig(name="l1d", size_bytes=8 * 1024,
                            line_bytes=64, associativity=2))
        kernels = {
            cm: classic_kernel("matrix_walk", rows=256, cols=16,
                               column_major=cm)[0]
            for cm in (False, True)
        }

        ooo_config = MachineConfig.alpha21264_like(memory=memory)
        ooo = {cm: OutOfOrderCore(kernels[cm], config=ooo_config)
               for cm in kernels}
        for core in ooo.values():
            core.run()
        assert (ooo[True].hierarchy.l1d.misses
                > 3 * ooo[False].hierarchy.l1d.misses)
        # The OoO machine hides the extra (L2-hit) latency almost fully.
        assert ooo[True].cycle < 1.3 * ooo[False].cycle

        inorder_config = MachineConfig.alpha21164_like(memory=memory)
        inorder = {cm: InOrderCore(kernels[cm], config=inorder_config)
                   for cm in kernels}
        cycles = {cm: core.run() for cm, core in inorder.items()}
        assert cycles[True] > 1.5 * cycles[False]

    def test_matrix_sums_agree(self):
        row, expected = classic_kernel("matrix_walk", rows=16, cols=16)
        col, expected_col = classic_kernel("matrix_walk", rows=16, cols=16,
                                           column_major=True)
        assert expected == expected_col
        assert run_both(row) == expected
        assert run_both(col) == expected

    def test_histogram_scatter_correct(self):
        program, expected = classic_kernel("histogram", items=256,
                                           buckets=32)
        assert 1 <= expected <= 32
        assert run_both(program) == expected


class TestKernelValidation:
    def test_binary_search_size_power_of_two(self):
        with pytest.raises(ProgramError):
            classic_kernel("binary_search", size=100)

    def test_reduction_power_of_two(self):
        with pytest.raises(ProgramError):
            classic_kernel("reduction", n=100)

    def test_histogram_buckets_power_of_two(self):
        with pytest.raises(ProgramError):
            classic_kernel("histogram", buckets=33)


def test_profileme_diagnoses_pointer_chase():
    """End to end: the profiler must finger the chase load."""
    from repro.analysis.bottlenecks import diagnose
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig

    program, _ = classic_kernel("pointer_chase", nodes=2048, hops=3000)
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=10, seed=1)))
    load_pc = next(pc for pc, _ in program.listing()
                   if program.fetch(pc).is_load)
    profile = run.database.profile(load_pc)
    assert profile is not None
    contributions, _ = diagnose(profile)
    top_register = contributions[0][0]
    # The chase load waits on its own previous value.
    assert top_register in ("map_to_data_ready",
                            "load_issue_to_completion")
