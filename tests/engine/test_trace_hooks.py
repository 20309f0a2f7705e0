"""The module attributes layerbench's traced mode patches must stay hookable.

``layerbench/run.py --trace 1`` times the two-speed layers by replacing
three module attributes by name (``layerbench/wl_profile.py``
``trace_targets``).  A rename or a call that bypasses the module global
in ``src/`` would only break that run, so this tier-1 test fails first.
"""

import importlib
from collections import Counter

import pytest

from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

HOOKS = (("repro.engine.twospeed", "fast_forward"),
         ("repro.cpu.tracecache", "compile_block"),
         ("repro.engine.twospeed", "OutOfOrderCore"))


@pytest.mark.parametrize("module_name, name", HOOKS)
def test_hook_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


def test_patched_hooks_observe_a_two_speed_session(monkeypatch):
    calls = Counter()

    def counting(hook, original):
        def wrapper(*args, **kwargs):
            calls[hook] += 1
            return original(*args, **kwargs)
        return wrapper

    for hook in HOOKS:
        module = importlib.import_module(hook[0])
        monkeypatch.setattr(module, hook[1],
                            counting(hook, getattr(module, hook[1])))
    # A fresh Program object: its blocks are not compiled yet.
    run_session(SessionSpec(
        program=suite_program("compress", scale=1), exec_mode="two-speed",
        window=200, max_retired=10_000,
        profile=ProfileMeConfig(mean_interval=1_000, seed=3)))
    assert all(calls[hook] > 0 for hook in HOOKS), calls
