"""Tests for running one session through ``run_session(SessionSpec(...))``.

These keep their original ids from when a one-call wrapper module fronted
``run_session``; they now check the same behaviour on the session layer.
"""

import pytest

from repro.counters.counter import CounterConfig, CounterEvent
from repro.cpu.inorder.core import InOrderCore
from repro.cpu.ooo.core import OutOfOrderCore
from repro.engine.session import SessionSpec, run_session
from repro.errors import ConfigError
from repro.profileme.unit import ProfileMeConfig


def test_make_core_kinds(tiny_program):
    """A session simulates on the core kind its spec names."""
    ooo = run_session(SessionSpec(program=tiny_program, core_kind="ooo"))
    inorder = run_session(SessionSpec(program=tiny_program,
                                      core_kind="inorder"))
    assert isinstance(ooo.core, OutOfOrderCore)
    assert isinstance(inorder.core, InOrderCore)
    with pytest.raises(ConfigError):
        SessionSpec(program=tiny_program, core_kind="vliw")


def test_run_profiled_defaults(tiny_program):
    run = run_session(SessionSpec(program=tiny_program,
                                  profile=ProfileMeConfig()))
    assert run.cycles > 0
    assert run.database is not None
    assert run.pair_analyzer is None


def test_run_profiled_inorder(tiny_program):
    run = run_session(SessionSpec(
        program=tiny_program, core_kind="inorder",
        profile=ProfileMeConfig(mean_interval=3, seed=2)))
    assert run.driver.delivered > 0


def _counter_session(program):
    return run_session(SessionSpec(
        program=program,
        counter=CounterConfig(event=CounterEvent.RETIRED_INST, period=5)))


def test_run_with_counter(tiny_program):
    run = _counter_session(tiny_program)
    assert run.unit is None
    assert run.counter.events_counted == run.core.retired


def test_run_with_counter_reports_cycles(tiny_program):
    run = _counter_session(tiny_program)
    assert run.cycles > 0
    assert run.cycles == run.core.cycle
