"""Tests for the SMT machine model."""

import pytest

from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.smt import SmtCore, smt_speedup
from repro.errors import ConfigError
from repro.profileme.driver import ProfileMeDriver
from repro.isa.interpreter import Interpreter
from repro.analysis.database import ProfileDatabase
from repro.profileme.unit import ProfileMeConfig, ProfileMeUnit
from repro.workloads import classic_kernel, suite_program

from tests.conftest import counting_loop


class TestCorrectness:
    def test_each_context_matches_interpreter(self):
        programs = [suite_program("compress", scale=1),
                    suite_program("li", scale=1)]
        smt = SmtCore(programs)
        smt.run()
        for core in smt.threads:
            ref = Interpreter(core.program)
            ref.run_to_halt()
            assert (core.architectural_registers()
                    == ref.state.regs.snapshot())
            assert core.retired == ref.retired

    def test_single_context_smt_equals_plain_core(self):
        program = counting_loop(iterations=500)
        smt = SmtCore([program], partition=False)
        smt_cycles = smt.run()
        plain = OutOfOrderCore(program)
        plain_cycles = plain.run()
        assert smt.threads[0].retired == plain.retired
        # Identical machine, identical schedule.
        assert smt_cycles == plain_cycles

    def test_four_contexts(self):
        programs = [counting_loop(iterations=200 + 50 * i)
                    for i in range(4)]
        smt = SmtCore(programs)
        smt.run()
        assert smt.halted
        for index, core in enumerate(smt.threads):
            assert core.retired == 2 + (200 + 50 * index) * 3 + 1

    def test_context_count_validated(self):
        with pytest.raises(ConfigError):
            SmtCore([])
        with pytest.raises(ConfigError):
            SmtCore([counting_loop()] * 5)


class TestSharing:
    def test_caches_and_predictor_shared(self):
        programs = [counting_loop(iterations=100),
                    counting_loop(iterations=100)]
        smt = SmtCore(programs)
        assert smt.threads[0].hierarchy is smt.threads[1].hierarchy
        assert smt.threads[0].predictor is smt.threads[1].predictor

    def test_windows_partitioned(self):
        programs = [counting_loop(iterations=50),
                    counting_loop(iterations=50)]
        smt = SmtCore(programs)
        assert (smt.threads[0].config.rob_entries
                <= smt.config.rob_entries // 2)

    def test_complementary_threads_speed_up(self):
        """The classic SMT result: memory-bound + compute-bound overlap."""
        mem, _ = classic_kernel("pointer_chase", nodes=8192, hops=3000)
        cpu_prog, _ = classic_kernel("daxpy", n=1200)
        smt_cycles, serial_cycles, speedup = smt_speedup([mem, cpu_prog])
        assert speedup > 1.4

    def test_identical_compute_threads_contend(self):
        """Two copies of a machine-saturating thread cannot both run at
        full speed: the shared issue slots bound the gain."""
        program = counting_loop(
            iterations=400,
            body=lambda b: [b.lda(r, r, 1) for r in range(4, 12)])
        smt_cycles, serial_cycles, speedup = smt_speedup(
            [program, program])
        assert speedup < 1.5


class TestProfileMeOnSmt:
    def test_one_unit_attributes_across_contexts(self):
        programs = [suite_program("compress", scale=1),
                    suite_program("go", scale=1)]
        smt = SmtCore(programs)
        driver = ProfileMeDriver()
        database = driver.add_sink(ProfileDatabase())
        smt.add_probe(ProfileMeUnit(
            ProfileMeConfig(mean_interval=40, seed=7),
            handler=driver.handle_interrupt))
        smt.run()

        contexts = {r.context for r in driver.all_single_records()}
        assert contexts == {0, 1}
        # Attribution is consistent: a record's PC must be valid in its
        # context's program.
        for record in driver.all_single_records():
            if record.op is None:
                continue
            program = programs[record.context]
            assert program.contains_pc(record.pc)
        # Sample shares roughly track fetch shares.
        by_context = {0: 0, 1: 0}
        for record in driver.all_single_records():
            by_context[record.context] += 1
        fetch_share = (smt.threads[0].fetched
                       / (smt.threads[0].fetched + smt.threads[1].fetched))
        sample_share = by_context[0] / sum(by_context.values())
        assert abs(sample_share - fetch_share) < 0.1
