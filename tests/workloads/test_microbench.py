"""Tests for the figure microbenchmarks and stall kernels."""

import pytest

from repro.cpu.ooo.core import OutOfOrderCore
from repro.errors import ProgramError
from repro.events import Event
from repro.isa.interpreter import Interpreter, functional_trace
from repro.workloads.microbench import (fig2_loop, fig7_three_loops,
                                        kernel_names, stall_kernel)


class TestFig2Loop:
    def test_terminates_and_reports_load_pc(self):
        program, load_pc = fig2_loop(iterations=10, nop_count=5)
        trace = functional_trace(program)
        loads = [e for e in trace if e.inst.is_load]
        assert len(loads) == 10
        assert all(e.pc == load_pc for e in loads)

    def test_single_memory_instruction(self):
        program, load_pc = fig2_loop(iterations=5, nop_count=10)
        memory_ops = [i for i in program.instructions if i.is_memory]
        assert len(memory_ops) == 1

    def test_load_hits_after_warmup(self):
        program, load_pc = fig2_loop(iterations=50, nop_count=10)
        core = OutOfOrderCore(program)
        core.run()
        # One cold miss; everything after hits the same line.
        assert core.hierarchy.l1d.misses <= 2


class TestFig7ThreeLoops:
    def test_regions_partition_the_loops(self):
        program, regions = fig7_three_loops(iterations=5)
        assert set(regions) == {"serial", "parallel", "memory"}
        for start, end in regions.values():
            assert 0 <= start < end <= program.pc_limit

    def test_runs_to_completion(self):
        program, _ = fig7_three_loops(iterations=5)
        assert Interpreter(program).run_to_halt() > 0

    def test_memory_loop_misses(self):
        program, regions = fig7_three_loops(iterations=30)
        core = OutOfOrderCore(program)
        core.run()
        assert core.hierarchy.l1d.misses > 25  # line-strided loads

    def test_serial_loop_slower_per_instruction_than_parallel(self):
        from repro.analysis.groundtruth import GroundTruthCollector

        program, regions = fig7_three_loops(iterations=40)
        core = OutOfOrderCore(program)
        truth = core.add_probe(GroundTruthCollector())
        core.run()

        def mean_latency(region):
            start, end = regions[region]
            totals = [t for pc, t in truth.per_pc.items()
                      if start <= pc < end and t.latency_count]
            return (sum(t.latency_sum for t in totals)
                    / sum(t.latency_count for t in totals))

        assert mean_latency("serial") > mean_latency("parallel")


class TestStallKernels:
    def test_all_kernels_terminate(self):
        for name in kernel_names():
            program = stall_kernel(name, iterations=5)
            assert Interpreter(program).run_to_halt() > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProgramError, match="unknown stall kernel"):
            stall_kernel("bogus")

    @pytest.mark.parametrize("name,latency_field", [
        ("dep_chain", "map_to_data_ready"),
        ("fu_contention", "data_ready_to_issue"),
        ("dcache_miss", "load_issue_to_completion"),
        ("retire_block", "retire_ready_to_retire"),
    ])
    def test_kernel_provokes_its_latency(self, name, latency_field):
        """Each Table 1 kernel inflates its targeted latency register."""
        from repro.engine.session import SessionSpec, run_session
        from repro.profileme.unit import ProfileMeConfig

        program = stall_kernel(name, iterations=120)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=15, seed=6)))
        # Mean of the targeted latency across all samples, vs a quiet
        # baseline kernel: must be clearly elevated somewhere.
        values = []
        for profile in run.database.per_pc.values():
            aggregate = profile.latency(latency_field)
            if aggregate.count:
                values.append(aggregate.mean)
        assert values
        assert max(values) >= 3.0

    def test_map_stall_kernel_provokes_map_stalls(self):
        from repro.cpu.probes import Probe

        class StallCounter(Probe):
            def __init__(self):
                self.count = 0

            def on_retire(self, dyninst, cycle):
                if dyninst.events & Event.MAP_STALL_REGS:
                    self.count += 1

        program = stall_kernel("map_stall", iterations=60)
        core = OutOfOrderCore(program)
        counter = core.add_probe(StallCounter())
        core.run()
        assert counter.count > 0
