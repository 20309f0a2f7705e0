"""Fault-injection and resume tests for the sweep runner.

The runners defined at module level are shipped to worker processes by
``run_sweep(runner=...)``; they dispatch on the spec's label, so one
spec list can mix healthy specs with ones that raise, hang past the
timeout, or kill their worker outright (SIGKILL — the mid-chunk crash a
process pool cannot survive).
"""

import json
import os
import signal
import time

import pytest

from repro.engine.session import SessionSpec, run_session
from repro.engine.sweep import (STATUS_CACHED, STATUS_FAILED, STATUS_OK,
                                STATUS_TIMEOUT, ResultStore, run_sweep,
                                spec_key)
from repro.errors import SweepError
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


def _spec(label, interval=25, seed=7, iterations=40):
    return SessionSpec(program=counting_loop(iterations=iterations),
                       profile=ProfileMeConfig(mean_interval=interval,
                                               seed=seed),
                       keep_records=False, label=label)


def faulty_runner(spec):
    """Worker-side fault injection, keyed on the spec label."""
    label = spec.label or ""
    if label == "boom":
        raise RuntimeError("injected failure")
    if label == "hang":
        time.sleep(60)
    if label == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if label.startswith("flaky:"):
        marker = label.split(":", 1)[1]
        if not os.path.exists(marker):
            with open(marker, "w") as stream:
                stream.write("attempted")
            raise RuntimeError("injected first-attempt failure")
    return run_session(spec)


def _payload_bytes(outcome):
    return json.dumps(outcome.payload, sort_keys=True)


# ----------------------------------------------------------------------
# Fault tolerance.


def test_raising_spec_does_not_abort_sweep():
    specs = [_spec("ok-a", seed=1), _spec("boom", seed=2),
             _spec("ok-b", seed=3)]
    sweep = run_sweep(specs, workers=2, retries=1, runner=faulty_runner)
    assert sweep.statuses == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    failed = sweep.outcomes[1]
    assert failed.attempts == 2  # first try + one retry, fresh worker each
    assert "RuntimeError: injected failure" in failed.error
    assert failed.result is None
    assert sweep.metrics.ok == 2
    assert sweep.metrics.failed == 1
    assert sweep.metrics.retries == 1


def test_timeout_terminates_hung_worker():
    specs = [_spec("ok-a", seed=1), _spec("hang", seed=2),
             _spec("ok-b", seed=3)]
    start = time.monotonic()
    sweep = run_sweep(specs, workers=2, timeout=1.0, retries=0,
                      runner=faulty_runner)
    assert time.monotonic() - start < 30  # nowhere near the 60s sleep
    assert sweep.statuses == [STATUS_OK, STATUS_TIMEOUT, STATUS_OK]
    assert "timed out" in sweep.outcomes[1].error
    assert sweep.metrics.timeouts == 1


def test_worker_killed_mid_chunk_is_confined():
    """SIGKILL in a worker — the failure a shared pool cannot absorb —
    must cost only that spec, with the kill visible in the error."""
    specs = [_spec("ok-a", seed=1), _spec("die", seed=2),
             _spec("ok-b", seed=3), _spec("ok-c", seed=4)]
    sweep = run_sweep(specs, workers=2, retries=1, chunk_size=4,
                      runner=faulty_runner)
    assert sweep.statuses == [STATUS_OK, STATUS_FAILED,
                              STATUS_OK, STATUS_OK]
    assert "worker died" in sweep.outcomes[1].error
    assert sweep.outcomes[1].attempts == 2


def test_flaky_spec_succeeds_on_retry(tmp_path):
    marker = str(tmp_path / "flaky-marker")
    specs = [_spec("flaky:" + marker, seed=5), _spec("ok", seed=6)]
    sweep = run_sweep(specs, workers=2, retries=1, runner=faulty_runner)
    assert sweep.statuses == [STATUS_OK, STATUS_OK]
    assert sweep.outcomes[0].attempts == 2
    assert sweep.metrics.retries == 1
    # The retried result is indistinguishable from a clean one.
    clean = run_sweep([_spec("flaky:" + marker, seed=5)], workers=1)
    assert _payload_bytes(sweep.outcomes[0]) == _payload_bytes(
        clean.outcomes[0])


def test_inline_mode_retries_and_records_failures():
    specs = [_spec("boom", seed=1), _spec("ok", seed=2)]
    sweep = run_sweep(specs, workers=1, retries=2, runner=faulty_runner)
    assert sweep.statuses == [STATUS_FAILED, STATUS_OK]
    assert sweep.outcomes[0].attempts == 3
    assert "RuntimeError" in sweep.outcomes[0].error


def test_bad_arguments_are_rejected():
    with pytest.raises(SweepError):
        run_sweep([_spec("x")], retries=-1)
    with pytest.raises(SweepError):
        run_sweep([_spec("x")], timeout=0)
    with pytest.raises(SweepError):
        run_sweep([_spec("x")], chunk_size=0)


# ----------------------------------------------------------------------
# Checkpoint / resume.


class _InterruptAfterFirstFlush(Exception):
    pass


def test_interrupted_sweep_resumes_byte_identical(tmp_path):
    """Acceptance: >= 16 specs, killed after the first checkpoint, then
    resumed — byte-identical to an uninterrupted run, cache hits > 0,
    and only the missing specs re-simulated."""
    specs = [_spec("S=%d seed=%d" % (interval, seed),
                   interval=interval, seed=seed)
             for interval in (20, 40, 60, 80) for seed in (1, 2, 3, 4)]
    assert len(specs) == 16

    store_dir = str(tmp_path / "checkpoint")

    def die_after_first_flush(event):
        if event["kind"] == "flush":
            raise _InterruptAfterFirstFlush()

    with pytest.raises(_InterruptAfterFirstFlush):
        run_sweep(specs, workers=2, chunk_size=4, store=store_dir,
                  progress=die_after_first_flush)
    flushed = len(ResultStore(store_dir))
    assert 0 < flushed < len(specs)  # partial checkpoint on disk

    events = []
    resumed = run_sweep(specs, workers=2, chunk_size=4, store=store_dir,
                        progress=lambda event: events.append(event["kind"]))
    assert resumed.metrics.cached == flushed
    assert resumed.metrics.cached > 0
    assert resumed.metrics.ok == len(specs) - resumed.metrics.cached
    assert set(resumed.statuses) == {STATUS_OK, STATUS_CACHED}
    assert "cached" in events

    uninterrupted = run_sweep(specs, workers=2,
                              store=str(tmp_path / "fresh"))
    for cached, fresh in zip(resumed.outcomes, uninterrupted.outcomes):
        assert _payload_bytes(cached) == _payload_bytes(fresh)

    # Resuming the finished sweep simulates nothing at all.
    done = run_sweep(specs, workers=2, store=store_dir)
    assert done.metrics.cached == len(specs)
    assert done.metrics.simulated_cycles == 0


def test_cold_warm_and_half_warm_cache_accounting(tmp_path):
    """Every spec is simulated (ok) or served from the cache (cached),
    never both: a cold sweep simulates the whole grid, a warm one none
    of it, and a half-seeded cache simulates only the missing half."""
    specs = [_spec("S=%d seed=%d" % (interval, seed),
                   interval=interval, seed=seed)
             for interval in (20, 40) for seed in (1, 2)]
    total = len(specs)
    full_dir = str(tmp_path / "full")
    cold = run_sweep(specs, workers=2, store=full_dir)
    assert (cold.metrics.ok, cold.metrics.cached) == (total, 0)
    warm = run_sweep(specs, workers=2, store=full_dir)
    assert (warm.metrics.ok, warm.metrics.cached) == (0, total)

    full_store = ResultStore(full_dir)
    half_store = ResultStore(str(tmp_path / "half"))
    for spec in specs[:total // 2]:
        key = spec_key(spec)
        half_store.store(key, full_store.load_payload(key))
    half = run_sweep(specs, workers=2, store=str(tmp_path / "half"))
    assert half.metrics.cached == total // 2
    assert half.metrics.ok == total - total // 2


def test_failed_specs_are_not_cached_and_rerun_on_resume(tmp_path):
    store_dir = str(tmp_path / "ck")
    specs = [_spec("ok-a", seed=1), _spec("boom", seed=2)]
    first = run_sweep(specs, workers=2, retries=0, store=store_dir,
                      runner=faulty_runner)
    assert first.statuses == [STATUS_OK, STATUS_FAILED]
    assert len(ResultStore(store_dir)) == 1  # only the ok result

    # On resume the failed spec runs again — here with the healthy
    # runner, so the sweep completes and the cache fills in.
    second = run_sweep(specs, workers=2, store=store_dir)
    assert second.statuses == [STATUS_CACHED, STATUS_OK]
    assert len(ResultStore(store_dir)) == 2


def test_store_layout_and_manifest(tmp_path):
    store_dir = str(tmp_path / "ck")
    specs = [_spec("a", seed=1), _spec("b", seed=2)]
    run_sweep(specs, workers=1, store=store_dir)
    store = ResultStore(store_dir)
    assert store.keys() == sorted(spec_key(spec) for spec in specs)
    for key in store.keys():
        payload = store.load_payload(key)
        assert payload["format"] == "repro-session-result"
        assert payload["spec_key"] == key
    with open(os.path.join(store_dir, "manifest.json")) as stream:
        manifest = json.load(stream)
    assert manifest["format"] == "repro-sweep-checkpoint"
    assert manifest["results"] == 2


def test_cached_result_is_usable(tmp_path):
    """A cache hit must come back as a working detached result."""
    store_dir = str(tmp_path / "ck")
    spec = _spec("reuse", interval=20, seed=9)
    fresh = run_sweep([spec], workers=1, store=store_dir)
    cached = run_sweep([spec], workers=1, store=store_dir)
    a = fresh.outcomes[0].result
    b = cached.outcomes[0].result
    assert b.spec is spec
    assert b.stats == a.stats
    assert b.cycles == a.cycles
    assert b.sampling_stats == a.sampling_stats
    assert b.database.total_samples == a.database.total_samples
    assert b.database.per_pc.keys() == a.database.per_pc.keys()


# ----------------------------------------------------------------------
# Progress hook and metrics.


def test_progress_hook_sees_metrics(tmp_path):
    specs = [_spec("m-%d" % i, seed=i) for i in range(1, 5)]
    events = []
    sweep = run_sweep(specs, workers=2, chunk_size=2,
                      store=str(tmp_path / "ck"),
                      progress=lambda event: events.append(event))
    kinds = [event["kind"] for event in events]
    assert kinds.count("spec") == 4
    assert kinds.count("flush") == 2
    for event in events:
        assert event["metrics"] is sweep.metrics
    assert sweep.metrics.done == sweep.metrics.total == 4
    assert sweep.metrics.simulated_cycles > 0
    assert sweep.metrics.cycles_per_second > 0
    snapshot = sweep.metrics.snapshot()
    assert snapshot["ok"] == 4
    assert snapshot["cycles_per_second"] == sweep.metrics.cycles_per_second


def test_empty_sweep():
    sweep = run_sweep([])
    assert sweep.outcomes == []
    assert sweep.metrics.total == 0


# ----------------------------------------------------------------------
# Checkpoint persistence failures (regression: these used to be
# swallowed, letting a sweep "succeed" with an unresumable checkpoint).


class FlakyStore(ResultStore):
    """ResultStore whose store()/write_manifest() raise on command."""

    def __init__(self, root, fail_keys=(), fail_manifest=False):
        super().__init__(root)
        self.fail_keys = set(fail_keys)
        self.fail_manifest = fail_manifest

    def store(self, key, payload):
        if key in self.fail_keys:
            raise OSError(28, "injected: no space left on device")
        super().store(key, payload)

    def write_manifest(self, metrics=None):
        if self.fail_manifest:
            raise OSError(13, "injected: permission denied")
        super().write_manifest(metrics)


def test_persist_failure_raises_typed_error_and_is_counted(tmp_path):
    from repro.errors import PersistenceError

    specs = [_spec("p-a", seed=1), _spec("p-b", seed=2)]
    keys = [spec_key(spec) for spec in specs]
    store = FlakyStore(str(tmp_path / "ck"), fail_keys={keys[0]})
    events = []
    with pytest.raises(PersistenceError) as excinfo:
        run_sweep(specs, workers=1, store=store,
                  progress=lambda event: events.append(event))
    assert "no space left" in str(excinfo.value)
    persist_events = [e for e in events if e["kind"] == "persist_error"]
    assert len(persist_events) == 1
    assert persist_events[0]["key"] == keys[0]
    assert persist_events[0]["metrics"].persist_failures == 1
    # The healthy write still landed: the checkpoint stays resumable
    # for everything that could be stored.
    assert store.has(keys[1])
    assert not store.has(keys[0])


def test_manifest_failure_raises_and_keeps_results(tmp_path):
    from repro.errors import PersistenceError

    spec = _spec("p-m", seed=3)
    store = FlakyStore(str(tmp_path / "ck"), fail_manifest=True)
    events = []
    with pytest.raises(PersistenceError):
        run_sweep([spec], workers=1, store=store,
                  progress=lambda event: events.append(event))
    persist_events = [e for e in events if e["kind"] == "persist_error"]
    assert [e["key"] for e in persist_events] == ["manifest"]
    assert store.has(spec_key(spec))  # the result itself was stored


def test_resume_after_persist_failure(tmp_path):
    """The failed write costs nothing on resume: stored specs load as
    cached, only the unpersisted one re-simulates."""
    from repro.errors import PersistenceError

    specs = [_spec("p-r1", seed=4), _spec("p-r2", seed=5)]
    keys = [spec_key(spec) for spec in specs]
    root = str(tmp_path / "ck")
    with pytest.raises(PersistenceError):
        run_sweep(specs, workers=1,
                  store=FlakyStore(root, fail_keys={keys[0]}))
    resumed = run_sweep(specs, workers=1, store=ResultStore(root))
    assert resumed.statuses == [STATUS_OK, STATUS_CACHED]
    assert resumed.metrics.cached == 1
    assert resumed.metrics.persist_failures == 0
    store = ResultStore(root)
    assert store.has(keys[0]) and store.has(keys[1])
