"""Resumable, fault-tolerant sweeps with content-addressed result caching.

The paper's results (sections 4-6) all come from *sweeps* — grids of
sessions over sampling intervals, seeds, workloads, and pairing
configurations — and DCPI-style continuous profiling assumes collection
survives interruption and accumulates across runs.  This module is the
sweep engine those experiments run on and the only way to fan sessions
across worker processes:

* **Content-addressed result cache.**  :func:`spec_key` hashes the
  canonical form of a :class:`~repro.engine.session.SessionSpec`
  (program text, core/profile/counter configs, limits, seeds — see
  ``SessionSpec.canonical``).  A :class:`ResultStore` maps that key to a
  versioned-JSON result document, so re-running a sweep only simulates
  specs whose key is absent and a cache hit is byte-identical to a
  fresh run.

* **Fault tolerance.**  Each spec runs in its own worker process with a
  per-attempt *timeout*; a raise, hang, or outright worker death
  (SIGKILL) is confined to that spec: it is retried on a fresh worker
  up to *retries* extra times and then recorded in the
  :class:`SweepResult` with status ``failed``/``timeout`` and the
  captured worker traceback.  One bad spec never poisons the pool or
  aborts the remaining specs.

* **Checkpointed resume.**  Specs are sharded into chunks; every
  completed chunk is flushed through the versioned-JSON persistence
  layer (:mod:`repro.analysis.persistence`, atomic rename per file)
  into the store.  A sweep killed between chunks loses at most the
  in-flight chunk: re-running with the same store (``repro sweep
  --resume <dir>``) loads finished specs as ``cached`` and simulates
  only the rest.

* **Progress/metrics hook.**  A *progress* callable receives structured
  events (spec finished, retry, chunk flushed) plus the live
  :class:`SweepMetrics` (done/ok/failed/timeout/cached counts, retries,
  simulated cycles per second) — the CLI prints them, tests import
  them.

Determinism: specs carry explicit seeds, so results are independent of
worker count, chunking, and completion order; ``tests/engine/
test_sweep.py`` verifies sweep output byte-equal to serial execution.
"""

import json
import hashlib
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Dict, List, Optional

from repro.analysis.persistence import (result_from_dict, result_to_dict,
                                        save_result)
from repro.engine.session import run_session
from repro.errors import PersistenceError, SweepError

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CACHED = "cached"


def spec_key(spec):
    """Content hash of a session spec: SHA-256 over its canonical JSON.

    Two specs get the same key iff they would simulate identically —
    the hash is taken over ``SessionSpec.canonical()`` serialized with
    sorted keys, so dict insertion order, container flavour, and the
    presentation-only ``label`` field never change it, while any seed,
    interval, limit, config, or program-text change does.
    """
    text = json.dumps(spec.canonical(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of cached results, one JSON document per spec key.

    Layout::

        <root>/manifest.json            sweep-level metadata
        <root>/results/<spec_key>.json  one repro-session-result each

    Files are written atomically (temp + rename), so the store is never
    observed half-written even if the sweep process is killed
    mid-flush; a result file either exists complete or not at all.
    The same directory serves as both cache and checkpoint: resuming is
    nothing more than running the same sweep against the same store.
    """

    def __init__(self, root):
        self.root = str(root)
        self.results_dir = os.path.join(self.root, "results")
        os.makedirs(self.results_dir, exist_ok=True)

    def path_for(self, key):
        return os.path.join(self.results_dir, key + ".json")

    def has(self, key):
        return os.path.exists(self.path_for(key))

    def keys(self):
        return sorted(name[:-len(".json")]
                      for name in os.listdir(self.results_dir)
                      if name.endswith(".json"))

    def __len__(self):
        return len(self.keys())

    def load_payload(self, key):
        """Return the raw JSON document stored under *key*."""
        try:
            with open(self.path_for(key)) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            raise KeyError(key) from None
        except ValueError as exc:  # corrupt store entry: fail loudly
            raise SweepError("corrupt store entry %s: %s"
                             % (self.path_for(key), exc)) from exc
        stored_key = payload.get("spec_key")
        if stored_key is not None and stored_key != key:
            raise SweepError("store entry %s holds a result for spec %s"
                             % (key, stored_key))
        return payload

    def load(self, key, spec=None):
        """Return the stored result as a detached SessionResult."""
        return result_from_dict(self.load_payload(key), spec=spec)

    def store(self, key, payload):
        save_result(payload, self.path_for(key), spec_key=key)

    def write_manifest(self, metrics=None):
        manifest = {"format": "repro-sweep-checkpoint", "version": 1,
                    "results": len(self)}
        if metrics is not None:
            manifest["last_run"] = metrics.snapshot()
        tmp = os.path.join(self.root, "manifest.json.tmp.%d" % os.getpid())
        with open(tmp, "w") as stream:
            json.dump(manifest, stream, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(self.root, "manifest.json"))


@dataclass
class SweepMetrics:
    """Live sweep accounting, exposed to the progress hook and the CLI."""

    total: int = 0
    done: int = 0
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    cached: int = 0
    retries: int = 0
    simulated_cycles: int = 0
    # Profile-volume accounting across fresh (non-cached) results: how
    # many samples the sweep's databases folded, and how many a bounded
    # retention cap (SessionSpec.retain_buckets) evicted again.  A sweep
    # whose evicted count is nonzero produced *approximate* aggregates.
    folded_samples: int = 0
    evicted_samples: int = 0
    persist_failures: int = 0  # checkpoint writes that failed (see flush)
    elapsed_seconds: float = 0.0

    @property
    def cycles_per_second(self):
        """Fresh-simulation throughput (cached specs cost no cycles)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.simulated_cycles / self.elapsed_seconds

    def snapshot(self):
        data = {f: getattr(self, f) for f in (
            "total", "done", "ok", "failed", "timeouts", "cached",
            "retries", "simulated_cycles", "folded_samples",
            "evicted_samples", "persist_failures", "elapsed_seconds")}
        data["cycles_per_second"] = self.cycles_per_second
        return data


@dataclass
class SpecOutcome:
    """What happened to one spec: status, result or error, attempts."""

    index: int
    spec: Any
    key: str
    status: str
    result: Any = None  # detached SessionResult for ok/cached
    payload: Optional[Dict] = None  # canonical JSON document for ok/cached
    error: Optional[str] = None  # formatted traceback / kill description
    attempts: int = 0  # simulation attempts (0 for cached)


@dataclass
class SweepResult:
    """All outcomes of one sweep, in spec order, plus final metrics."""

    outcomes: List[SpecOutcome]
    metrics: SweepMetrics

    @property
    def results(self):
        """Detached results in spec order (None for failed/timeout)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def statuses(self):
        return [outcome.status for outcome in self.outcomes]

    def completed(self):
        return [o for o in self.outcomes
                if o.status in (STATUS_OK, STATUS_CACHED)]

    def failures(self):
        return [o for o in self.outcomes
                if o.status in (STATUS_FAILED, STATUS_TIMEOUT)]


# ----------------------------------------------------------------------
# Worker side.


def _default_runner(spec):
    return run_session(spec)


def _sweep_worker(conn, runner, spec):
    """Run one spec in a child process; ship back (status, value).

    Everything that can go wrong inside the runner is converted to data
    — the parent decides about retries.  If the *result* cannot cross
    the pipe (unpicklable), that too comes back as an error rather than
    a silent hang.
    """
    try:
        result = runner(spec)
        if hasattr(result, "detach"):
            result = result.detach()
        message = (STATUS_OK, result)
    except BaseException:
        message = ("error", traceback.format_exc())
    try:
        conn.send(message)
    except (OSError, ValueError, TypeError, AttributeError):
        # Pickling the result failed (ValueError/TypeError/AttributeError
        # from pickle) or the pipe broke mid-send (OSError).  Ship the
        # traceback instead so the parent records a failure, not a hang.
        try:
            conn.send(("error", "result not picklable:\n"
                       + traceback.format_exc()))
        except OSError:
            # The pipe itself is gone.  Nothing can cross it, but this is
            # not silent: the parent sees EOF on the connection and
            # records the spec as failed ("worker died without a reply").
            pass
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight worker process for one spec."""

    index: int
    spec: Any
    attempts: int  # including this one
    process: Any
    conn: Any
    deadline: Optional[float]


# ----------------------------------------------------------------------
# Parent side.


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _run_chunk_inline(tasks, retries, runner, finish, emit):
    """Serial in-process execution (workers<=1, no timeout to enforce)."""
    for index, spec in tasks:
        attempts = 0
        while True:
            attempts += 1
            try:
                result = runner(spec)
                if hasattr(result, "detach"):
                    result = result.detach()
                finish(index, spec, STATUS_OK, attempts, result=result)
                break
            except Exception:
                error = traceback.format_exc()
                if attempts <= retries:
                    emit({"kind": "retry", "index": index,
                          "attempts": attempts, "error": error})
                    continue
                finish(index, spec, STATUS_FAILED, attempts, error=error)
                break


def _run_chunk_processes(tasks, workers, timeout, retries, ctx, runner,
                         finish, emit):
    """Run one chunk's specs across dedicated worker processes.

    Each attempt gets a *fresh* process (no shared pool state to
    poison) and a private pipe.  A worker that raises reports an error;
    one that exceeds *timeout* is terminated; one that dies without
    reporting (killed mid-chunk, OOM) is detected via pipe EOF plus
    exit code.  All three outcomes feed the same retry path.
    """
    pending = deque(tasks)  # (index, spec, attempts_so_far)
    live = {}  # recv conn -> _Attempt

    def _failure(attempt, status, error):
        if attempt.attempts <= retries:
            emit({"kind": "retry", "index": attempt.index,
                  "attempts": attempt.attempts, "error": error})
            pending.append((attempt.index, attempt.spec, attempt.attempts))
            return
        final = STATUS_TIMEOUT if status == STATUS_TIMEOUT else STATUS_FAILED
        finish(attempt.index, attempt.spec, final, attempt.attempts,
               error=error)

    while pending or live:
        while pending and len(live) < workers:
            index, spec, attempts = pending.popleft()
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_sweep_worker,
                                  args=(send_conn, runner, spec),
                                  daemon=True)
            process.start()
            send_conn.close()  # keep exactly one writer: EOF means death
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            live[recv_conn] = _Attempt(index=index, spec=spec,
                                       attempts=attempts + 1,
                                       process=process, conn=recv_conn,
                                       deadline=deadline)

        if timeout is None:
            wait_for = None
        else:
            now = time.monotonic()
            wait_for = max(0.0, min(a.deadline for a in live.values()) - now)
        for conn in _wait_ready(list(live), timeout=wait_for):
            attempt = live.pop(conn)
            try:
                status, value = conn.recv()
            except (EOFError, OSError):
                attempt.process.join()
                conn.close()
                _failure(attempt, STATUS_FAILED,
                         "worker died without reporting a result "
                         "(exit code %s)" % attempt.process.exitcode)
                continue
            conn.close()
            attempt.process.join()
            if status == STATUS_OK:
                finish(attempt.index, attempt.spec, STATUS_OK,
                       attempt.attempts, result=value)
            else:
                _failure(attempt, STATUS_FAILED, value)

        if timeout is not None:
            now = time.monotonic()
            for conn, attempt in list(live.items()):
                if attempt.deadline is not None and now >= attempt.deadline:
                    live.pop(conn)
                    attempt.process.terminate()
                    attempt.process.join()
                    conn.close()
                    _failure(attempt, STATUS_TIMEOUT,
                             "timed out after %.3fs (attempt %d)"
                             % (timeout, attempt.attempts))


def run_sweep(specs, workers=None, timeout=None, retries=1, store=None,
              chunk_size=None, progress=None, runner=None):
    """Run every spec; return a :class:`SweepResult` in spec order.

    Arguments:
        specs: session specs (anything with ``canonical()`` — normally
            :class:`~repro.engine.session.SessionSpec`).
        workers: concurrent worker processes; defaults to
            ``min(len(specs), cpu_count)``.  ``workers <= 1`` with no
            *timeout* runs inline (no processes).
        timeout: per-attempt wall-clock seconds; a worker past its
            deadline is terminated.  Setting a timeout forces process
            isolation even for ``workers=1`` (an inline hang cannot be
            interrupted).
        retries: extra attempts (each on a fresh worker) after a
            failure, timeout, or worker death.
        store: a :class:`ResultStore` or directory path.  Specs whose
            key is already present load as ``cached`` without
            simulating; each completed chunk is flushed back, making
            the sweep resumable.
        chunk_size: specs per checkpoint chunk (default ``2 * workers``).
        progress: callable receiving event dicts (``kind`` in
            ``{"cached", "spec", "retry", "flush"}``) with the live
            :class:`SweepMetrics` under ``"metrics"``.
        runner: module-level callable ``spec -> SessionResult``
            replacing :func:`~repro.engine.session.run_session`
            (fault-injection tests use this; it must be picklable).
    """
    specs = list(specs)
    if retries < 0:
        raise SweepError("retries must be >= 0, got %d" % retries)
    if timeout is not None and timeout <= 0:
        raise SweepError("timeout must be positive, got %r" % (timeout,))
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    runner = runner or _default_runner

    metrics = SweepMetrics(total=len(specs))
    started = time.monotonic()
    emit = progress if progress is not None else (lambda event: None)

    def _emit(event):
        metrics.elapsed_seconds = time.monotonic() - started
        event["metrics"] = metrics
        emit(event)

    if not specs:
        return SweepResult(outcomes=[], metrics=metrics)

    if workers is None:
        workers = min(len(specs), os.cpu_count() or 1)
    workers = max(1, workers)
    if chunk_size is None:
        chunk_size = 2 * workers
    if chunk_size < 1:
        raise SweepError("chunk_size must be >= 1, got %d" % chunk_size)

    keys = [spec_key(spec) for spec in specs]
    outcomes = [None] * len(specs)

    # Phase 1: resolve cache hits (the resume path).
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if store is None or not store.has(key):
            continue
        payload = store.load_payload(key)
        outcomes[index] = SpecOutcome(
            index=index, spec=spec, key=key, status=STATUS_CACHED,
            result=result_from_dict(payload, spec=spec),
            payload=payload, attempts=0)
        metrics.cached += 1
        metrics.done += 1
        _emit({"kind": "cached", "index": index, "key": key})

    def finish(index, spec, status, attempts, result=None, error=None):
        payload = None
        if status == STATUS_OK:
            payload = result_to_dict(result, spec_key=keys[index])
            metrics.ok += 1
            metrics.simulated_cycles += result.cycles
            if result.database is not None:
                metrics.folded_samples += \
                    result.database.ingested_samples
                metrics.evicted_samples += \
                    result.database.evicted_samples
        elif status == STATUS_TIMEOUT:
            metrics.timeouts += 1
        else:
            metrics.failed += 1
        metrics.retries += attempts - 1
        metrics.done += 1
        outcomes[index] = SpecOutcome(
            index=index, spec=spec, key=keys[index], status=status,
            result=result, payload=payload, error=error, attempts=attempts)
        _emit({"kind": "spec", "index": index, "status": status,
               "attempts": attempts, "key": keys[index]})

    # Phase 2: simulate the missing specs, one checkpoint per chunk.
    todo = [index for index in range(len(specs)) if outcomes[index] is None]
    use_processes = workers > 1 or timeout is not None
    ctx = _pool_context() if use_processes else None
    for chunk in _chunks(todo, chunk_size):
        if use_processes:
            _run_chunk_processes(
                [(index, specs[index], 0) for index in chunk],
                workers, timeout, retries, ctx, runner, finish, _emit)
        else:
            _run_chunk_inline([(index, specs[index]) for index in chunk],
                              retries, runner, finish, _emit)
        if store is not None:
            # Checkpoint flush.  A write that fails here (disk full,
            # permissions, store directory removed) must not let the
            # sweep "succeed" with an unresumable checkpoint: each
            # failure is counted in the metrics and the chunk's flush
            # ends with a typed PersistenceError.  Only OSError is
            # caught — a bug in payload serialization should raise as
            # itself, not masquerade as a storage problem.
            stored = 0
            write_errors = []
            for index in chunk:
                outcome = outcomes[index]
                if outcome.status != STATUS_OK:
                    continue
                try:
                    store.store(outcome.key, outcome.payload)
                    stored += 1
                except OSError as exc:
                    metrics.persist_failures += 1
                    write_errors.append((outcome.key, exc))
                    _emit({"kind": "persist_error", "key": outcome.key,
                           "error": str(exc)})
            try:
                store.write_manifest(metrics)
            except OSError as exc:
                metrics.persist_failures += 1
                write_errors.append(("manifest", exc))
                _emit({"kind": "persist_error", "key": "manifest",
                       "error": str(exc)})
            _emit({"kind": "flush", "stored": stored,
                   "chunk": [outcomes[i].key for i in chunk]})
            if write_errors:
                metrics.elapsed_seconds = time.monotonic() - started
                key, exc = write_errors[0]
                raise PersistenceError(
                    "checkpoint flush failed for %d write(s) (first: %s: %s)"
                    % (len(write_errors), key, exc)) from exc

    metrics.elapsed_seconds = time.monotonic() - started
    return SweepResult(outcomes=outcomes, metrics=metrics)
