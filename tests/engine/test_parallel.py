"""Tests for parallel session execution: ``run_sweep``'s process fan-out.

Fault injection, retries and resume live in ``test_sweep.py``; these
check that fanning specs across worker processes changes nothing but
wall time.
"""

import json

from repro.analysis.persistence import result_to_dict
from repro.engine.session import SessionSpec, run_session
from repro.engine.sweep import STATUS_FAILED, STATUS_OK, run_sweep
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


def _specs(intervals=(20, 40, 80)):
    return [
        SessionSpec(program=counting_loop(iterations=60),
                    core_kind="ooo",
                    profile=ProfileMeConfig(mean_interval=s, seed=9),
                    label="S=%d" % s)
        for s in intervals
    ]


def test_empty_spec_list():
    assert run_sweep([], workers=2).results == []


def test_inline_path_matches_run_session():
    spec = _specs(intervals=(25,))[0]
    direct = run_session(spec)
    [inline] = run_sweep([spec], workers=1).results
    assert inline.cycles == direct.cycles
    assert inline.stats == direct.stats
    assert (inline.database.total_samples
            == direct.database.total_samples)


def test_results_keep_spec_order():
    results = run_sweep(_specs(), workers=2).results
    assert [r.label for r in results] == ["S=20", "S=40", "S=80"]


def test_workers_do_not_change_results():
    serial = run_sweep(_specs(), workers=1).results
    fanned = run_sweep(_specs(), workers=2).results
    for a, b in zip(serial, fanned):
        assert a.cycles == b.cycles
        assert a.stats == b.stats
        assert a.database.total_samples == b.database.total_samples
        assert a.sampling_stats == b.sampling_stats


def test_parallel_results_are_detached():
    [result] = run_sweep(_specs(intervals=(25,)), workers=2).results
    assert result.core is None
    assert result.unit is None
    assert result.sampling_stats is not None
    assert result.sampling_stats.records_delivered > 0


def test_worker_failure_carries_spec_index_and_traceback():
    """A spec that blows up in a worker is a failed outcome at its own
    index carrying the worker's traceback; its neighbours still run."""
    # A string is no MachineConfig: the core constructor fails inside
    # the worker, after the spec itself validated fine.
    bad = SessionSpec(program=counting_loop(iterations=20),
                      config="not-a-machine-config", label="bad")
    specs = _specs(intervals=(20,)) + [bad] + _specs(intervals=(40,))
    sweep = run_sweep(specs, workers=2, retries=0)
    assert sweep.statuses == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    failed = sweep.outcomes[1]
    assert failed.index == 1
    assert failed.spec is bad
    assert failed.result is None
    assert "Traceback (most recent call last)" in failed.error


def _mixed_specs():
    """One spec per substrate: ooo, inorder, and a two-thread smt run."""
    return [
        SessionSpec(program=counting_loop(iterations=50),
                    core_kind="ooo",
                    profile=ProfileMeConfig(mean_interval=20, seed=4),
                    keep_records=False, label="ooo"),
        SessionSpec(program=counting_loop(iterations=50),
                    core_kind="inorder",
                    profile=ProfileMeConfig(mean_interval=20, seed=5),
                    keep_records=False, label="inorder"),
        SessionSpec(programs=(counting_loop(iterations=40, name="t0"),
                              counting_loop(iterations=40, name="t1")),
                    core_kind="smt",
                    profile=ProfileMeConfig(mean_interval=25, seed=6),
                    keep_records=False, label="smt"),
    ]


def test_sweep_parallel_and_serial_are_byte_equivalent():
    """Differential: serial run_session and the sweep runner (inline and
    process mode) must produce byte-equal detached results on a mixed
    ooo/inorder/smt spec list."""
    def payloads(results):
        return [json.dumps(result_to_dict(result), sort_keys=True)
                for result in results]

    serial = payloads([run_session(spec).detach()
                       for spec in _mixed_specs()])
    sweep_inline = payloads(run_sweep(_mixed_specs(), workers=1).results)
    sweep_fanned = payloads(run_sweep(_mixed_specs(), workers=2).results)
    assert serial == sweep_inline == sweep_fanned
