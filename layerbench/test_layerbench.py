"""Tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest layerbench -q``.
"""

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import (highest_supported_percentile,  # noqa: E402
                        on_time_share, open_loop_latencies, percentile,
                        quartile_spread, samples_beyond)
from hostproc import parent_map, process_tree, tree_peak_rss_kb  # noqa: E402
from hostspeed import (NOMINAL_S, HostSpeed, nominal,  # noqa: E402
                       nominal_stretches)
from tracing import Patches, Tracer, instrumented  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestHighestSupportedPercentile:
    @pytest.mark.parametrize("count, expected", [
        (19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0),
        (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
    def test_rule(self, count, expected):
        assert highest_supported_percentile(count) == expected

    def test_ten_samples_beyond_the_reported_percentile(self):
        for count in range(20, 3000, 7):
            pct = highest_supported_percentile(count)
            assert samples_beyond(count, pct) >= 10
            higher = [p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if p > pct]
            assert all(samples_beyond(count, p) < 10 for p in higher)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 201))
        assert percentile(values, 50) == 100
        assert percentile(values, 95) == 190
        assert percentile(reversed(values), 100) == 200
        # 10 values lie above the reported p95 of 200 samples.
        assert sum(1 for v in values if v > percentile(values, 95)) == 10


class TestSpanSelfTime:
    def test_self_is_span_minus_children(self):
        tracer = Tracer(clock=FakeClock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
        parent = tracer.begin("parent")
        first = tracer.begin("child")
        tracer.end(first)
        second = tracer.begin("child")
        tracer.end(second)
        tracer.end(parent)
        assert tracer.total_s["parent"] == 10.0
        assert tracer.self_s["parent"] == 10.0 - 3.0 - 1.0
        assert tracer.self_s["child"] == 4.0
        assert tracer.count["child"] == 2
        assert tracer.attributed_s() == 10.0
        ids = {span[1]: span for span in tracer.spans}
        assert ids["child"][4] == ids["parent"][0]
        assert ids["parent"][4] == -1

    def test_grandchildren_are_charged_only_to_their_parent(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 4.0, 8.0, 9.0))
        outer = tracer.begin("outer")
        middle = tracer.begin("middle")
        inner = tracer.begin("inner")
        tracer.end(inner)   # 2..4
        tracer.end(middle)  # 1..8
        tracer.end(outer)   # 0..9
        assert tracer.self_s["inner"] == 2.0
        assert tracer.self_s["middle"] == 7.0 - 2.0
        assert tracer.self_s["outer"] == 9.0 - 7.0

    def test_out_of_order_close_is_an_error(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_spans_past_the_cap_still_count(self):
        tracer = Tracer(keep_spans=2)
        for _ in range(5):
            tracer.end(tracer.begin("x"))
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 3
        assert tracer.count["x"] == 5

    def test_instrumented_wraps_and_restores(self):
        class Base:
            def work(self, value):
                return value * 2

        class Derived(Base):
            pass

        tracer = Tracer()
        with instrumented(tracer, [(Derived, "work", "derived.work")]):
            assert Derived().work(3) == 6
            assert Base().work(1) == 2  # the base class is untouched
        assert tracer.count == {"derived.work": 1}
        assert "work" not in vars(Derived)

    def test_patches_restore_in_reverse(self):
        class Owner:
            value = 1

        patches = Patches()
        patches.set(Owner, "value", 2)
        patches.set(Owner, "value", 3)
        patches.restore()
        assert Owner.value == 1


class TestOpenLoopLatency:
    def test_latency_counts_from_the_due_time(self):
        # Due every second; the second request waited behind a stall and
        # was only sent at 2.5, replied at 3.0: its latency is 2.0, not 0.5.
        due = [0.0, 1.0, 2.0]
        replies = [0.25, 3.0, 3.5]
        assert open_loop_latencies(due, replies) == [0.25, 2.0, 1.5]

    def test_failed_request_is_over_any_limit(self):
        latencies = open_loop_latencies([0.0, 1.0], [0.5, None])
        assert latencies[1] == math.inf
        assert percentile(latencies, 100) == math.inf

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            open_loop_latencies([0.0], [])

    def test_on_time_share_counts_failures_as_late(self):
        latencies = open_loop_latencies([0.0, 1.0, 2.0, 3.0],
                                        [0.5, 1.75, 2.25, None])
        assert on_time_share(latencies, 0.5) == 0.5
        assert on_time_share(latencies, 1e9) == 0.75


class TestProcessTreeRss:
    PARENTS = {1: 0, 2: 1, 3: 1, 4: 2, 5: 0, 6: 5}
    HWM = {1: 100, 2: 50, 3: 25, 4: 10, 5: 999, 6: 7}

    def read(self, pid, field):
        assert field == "VmHWM"
        return self.HWM.get(pid)

    def test_tree_holds_root_and_descendants(self):
        assert process_tree(1, self.PARENTS) == [1, 2, 3, 4]

    def test_rss_is_summed_over_the_tree(self):
        assert tree_peak_rss_kb(1, self.PARENTS, self.read) == 185
        assert tree_peak_rss_kb(5, self.PARENTS, self.read) == 1006

    def test_exited_process_counts_zero(self):
        parents = {**self.PARENTS, 7: 1}
        assert tree_peak_rss_kb(1, parents, self.read) == 185

    def test_parent_map_reads_stat_files(self, tmp_path):
        for pid, ppid, comm in ((10, 1, "python3"), (11, 10, "a ) (b")):
            (tmp_path / str(pid)).mkdir()
            (tmp_path / str(pid) / "stat").write_text(
                "%d (%s) S %d 1 1 0\n" % (pid, comm, ppid))
        (tmp_path / "self").mkdir()
        assert parent_map(str(tmp_path)) == {10: 1, 11: 10}


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert quartile_spread(values) == pytest.approx(15.0 / 100.0)


class TestHostSpeed:
    def test_nominal_divides_by_the_mean_factor(self):
        # A host at half speed (factor 2) took 2 s for 1 nominal second.
        assert nominal(2.0, 2.0, 2.0) == 1.0
        assert nominal(3.0, 1.0, 2.0) == 2.0

    def test_factor_is_loop_time_over_nominal(self):
        speed = HostSpeed(clock=FakeClock(0.0, 2 * NOMINAL_S),
                          loop=lambda: None)
        assert speed.sample() == pytest.approx(2.0)
        assert speed.factors == [pytest.approx(2.0)]

    def test_measure_brackets_the_call_with_samples(self):
        # Latest factor 1.5; the call takes 3 s; the sample after it takes
        # 2.5 nominal loop times (factor 2.5); mean factor 2.
        n = NOMINAL_S
        speed = HostSpeed(clock=FakeClock(0.0, 0.0, 3.0, 3.0, 3.0 + 2.5 * n),
                          loop=lambda: None)
        speed.factors = [1.5]
        result, wall, raw = speed.measure(lambda: "done")
        assert result == "done"
        assert raw == pytest.approx(3.0)
        assert wall == pytest.approx(1.5)

    def test_stretches_use_the_samples_at_their_ends(self):
        # 1 s between factors 1 and 3, then 2 s between 3 and 1.
        assert nominal_stretches([1.0, 2.0], [1.0, 3.0, 1.0]) == 1.5
        with pytest.raises(ValueError):
            nominal_stretches([1.0], [1.0])

    def test_measure_samples_during_a_long_call(self):
        speed = HostSpeed()
        result, wall, raw = speed.measure(time.sleep, 1.2)
        assert len(speed.factors) >= 4  # before, two timer samples, after
        assert raw == pytest.approx(1.2, abs=0.1)
        assert wall > 0
