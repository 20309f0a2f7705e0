"""Tests for report formatting."""

from repro.analysis.bottlenecks import instruction_metrics
from repro.analysis.reports import (bottleneck_report, format_table,
                                    histogram_ascii, latency_table)
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


def test_format_table_alignment():
    text = format_table(["a", "bbb"], [[1, 2.5], [333, "x"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert "2.500" in text
    assert "333" in text


def test_histogram_ascii():
    text = histogram_ascii({0: 10, 4: 5, 8: 0})
    assert "#" in text
    lines = text.splitlines()
    assert len(lines) == 3
    assert histogram_ascii({}) == "(no samples)"


def test_latency_table_from_run():
    program = counting_loop(iterations=400)
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=10, seed=1)))
    text = latency_table(run.database, program=program)
    assert "fetch_to_map" in text
    assert "lda" in text


def test_bottleneck_report_from_run():
    program = counting_loop(iterations=600)
    run = run_session(SessionSpec(
        program=program,
        profile=ProfileMeConfig(
            mean_interval=20, paired=True, pair_window=16, seed=1)))
    metrics = instruction_metrics(run.database, 20,
                                  pair_analyzer=run.pair_analyzer)
    text = bottleneck_report(metrics, run.database, program=program)
    assert "pc=" in text
    assert "samples=" in text
