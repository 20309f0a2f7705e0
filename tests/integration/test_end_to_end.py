"""End-to-end integration tests: miniature versions of each experiment.

Every paper figure's full pipeline is exercised here at reduced scale, so
a regression anywhere in the stack (core -> ProfileMe -> analysis) fails
fast in CI; the full-scale reproductions live in benchmarks/.
"""

from collections import Counter

import pytest

from repro.analysis.bottlenecks import instruction_metrics
from repro.analysis.concurrency import ipc_variability
from repro.analysis.convergence import (convergence_points,
                                        envelope_fraction, retired_property)
from repro.analysis.pathprof import run_reconstruction_experiment
from repro.counters.counter import CounterConfig, CounterEvent
from repro.engine.session import SessionSpec, run_session
from repro.isa.interpreter import functional_trace
from repro.profileme.unit import ProfileMeConfig
from repro.utils.rng import SamplingRng
from repro.workloads import (fig2_loop, fig7_three_loops, suite_program)


class TestFig2AttributionShapes:
    """Event counters smear on OoO; ProfileMe attributes exactly."""

    @pytest.fixture(scope="class")
    def loop(self):
        return fig2_loop(iterations=200, nop_count=80)

    def test_inorder_single_peak(self, loop):
        program, load_pc = loop
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                                  skid_cycles=6),
            core_kind="inorder")).counter
        offsets = {s.delivered_pc - load_pc for s in counter.samples}
        assert len(offsets) == 1

    def test_ooo_smear(self, loop):
        program, load_pc = loop
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                                  skid_cycles=6, skid_jitter_cycles=8),
            core_kind="ooo")).counter
        offsets = Counter(s.delivered_pc - load_pc
                          for s in counter.samples)
        assert len(offsets) >= 4

    def test_profileme_attributes_exactly(self, loop):
        program, load_pc = loop
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=40, seed=7)))
        memory_samples = [r for r in run.records
                          if r.op is not None and r.op.value == "ld"]
        assert memory_samples
        assert all(r.pc == load_pc for r in memory_samples)


class TestFig3Convergence:
    def test_estimates_converge_on_suite_member(self):
        from repro.analysis.convergence import effective_interval

        program = suite_program("compress", scale=3)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=40, seed=13),
            collect_truth=True))
        s_eff = effective_interval(run.truth.total_fetched,
                                   run.database.total_samples)
        points = convergence_points(run.database, run.truth, s_eff,
                                    retired_property)
        hot = [p for p in points if p.matching_samples >= 40]
        assert hot
        for p in hot:
            assert abs(p.ratio - 1.0) < 0.4
        assert envelope_fraction(points) > 0.3


class TestFig6Paths:
    def test_three_scheme_ordering(self):
        program = suite_program("go", scale=1)
        trace = functional_trace(program)
        indices = list(range(300, len(trace) - 1, len(trace) // 30))
        results = run_reconstruction_experiment(
            program, trace, history_lengths=(4, 8), sample_indices=indices,
            pair_rng=SamplingRng(3))
        for bits in (4, 8):
            rates = results[bits]
            assert rates["history_bits"] >= rates["execution_counts"] - 0.1
            assert (rates["history_plus_pair"]
                    >= rates["history_bits"] - 1e-9)


class TestFig7WastedSlots:
    def test_latency_and_waste_diverge_across_loops(self):
        program, regions = fig7_three_loops(iterations=120)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=30, paired=True, pair_window=96, seed=9)))
        metrics = instruction_metrics(run.database, 30,
                                      pair_analyzer=run.pair_analyzer)

        def region_of(pc):
            for name, (start, end) in regions.items():
                if start <= pc < end:
                    return name
            return None

        per_region = {}
        for metric in metrics:
            name = region_of(metric.pc)
            if name and metric.wasted_slots is not None:
                latency, waste = per_region.get(name, (0.0, 0.0))
                per_region[name] = (latency + metric.total_latency,
                                    waste + max(0.0, metric.wasted_slots))
        assert set(per_region) == {"serial", "parallel", "memory"}
        # Waste per unit latency differs across loops: the serial loop
        # wastes far more slots per latency cycle than the parallel loop.
        ratio = {name: waste / latency if latency else 0.0
                 for name, (latency, waste) in per_region.items()}
        assert ratio["serial"] > ratio["parallel"]


class TestSec6IpcVariability:
    def test_windowed_ipc_varies(self):
        program = suite_program("li", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=500, seed=3),
            collect_truth=True, truth_options={"collect_retire_series": True}))
        windows = run.truth.windowed_ipc(window_cycles=30)
        stats = ipc_variability(windows)
        assert stats["max_min_ratio"] >= 2.0
        assert stats["stddev_over_mean"] > 0.1


class TestOptimizationLoop:
    @staticmethod
    def _scattered_program():
        """Hot functions separated by cold pads of one I-cache span.

        On a 2 KiB direct-mapped I-cache the three hot functions all map
        onto overlapping sets when interleaved with ~2 KiB cold pads, but
        fit simultaneously once packed together.
        """
        from repro.isa.builder import ProgramBuilder

        b = ProgramBuilder(name="scattered")
        b.begin_function("main")
        b.ldi(1, 60)
        for name in ("cold_0", "cold_1", "cold_2"):
            b.jsr(name, ra=26)  # touch the cold code once
        b.label("outer")
        for name in ("hot_0", "hot_1", "hot_2"):
            b.jsr(name, ra=26)
        b.lda(1, 1, -1)
        b.bne(1, "outer")
        b.halt()
        b.end_function()
        for index in range(3):
            b.begin_function("hot_%d" % index)
            for _ in range(35):  # ~150 instructions of straight-line work
                b.add(3, 3, 1)
                b.xor(4, 4, 3)
                b.lda(5, 5, 1)
                b.or_(6, 6, 4)
            b.ret(26)
            b.end_function()
            b.begin_function("cold_%d" % index)
            b.nop(380)  # ~1.5 KiB pad, executed once
            b.ret(26)
            b.end_function()
        return b.build(entry="main")

    def test_profile_guided_layout_reduces_icache_misses(self):
        """Close the loop: profile -> reorder functions -> re-measure."""
        from repro.analysis.optimize import (layout_order_from_profile,
                                             reorder_functions)
        from repro.cpu.config import MachineConfig
        from repro.mem.cache import CacheConfig
        from repro.mem.hierarchy import HierarchyConfig

        program = self._scattered_program()
        tiny_icache = HierarchyConfig(
            l1i=CacheConfig(name="l1i", size_bytes=2048, line_bytes=64,
                            associativity=1))
        config = MachineConfig.alpha21264_like(memory=tiny_icache)

        baseline = run_session(SessionSpec(
            program=program, config=config,
            profile=ProfileMeConfig(mean_interval=20, seed=2)))
        baseline_misses = baseline.core.hierarchy.l1i.misses

        order = layout_order_from_profile(baseline.database, program)
        improved = reorder_functions(program, order)
        after = run_session(SessionSpec(
            program=improved, config=config,
            profile=ProfileMeConfig(mean_interval=20, seed=2)))
        after_misses = after.core.hierarchy.l1i.misses
        assert after.core.retired == baseline.core.retired
        assert after_misses < 0.5 * baseline_misses
