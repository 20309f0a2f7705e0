"""Parallel session execution: fan independent specs across processes.

Simulation sessions are embarrassingly parallel — each
:class:`~repro.engine.session.SessionSpec` is self-contained and seeded,
so a sweep over sampling intervals, seeds, or workloads can use every
host core.  Results come back detached (simulator objects dropped,
profiles and statistics kept) and in spec order, so a parallel sweep is
a drop-in replacement for the serial loop it replaces::

    specs = [SessionSpec(program=prog,
                         profile=ProfileMeConfig(mean_interval=s, seed=i))
             for i, s in enumerate(intervals)]
    results = run_sessions_parallel(specs, workers=4)

Determinism: a spec's configs carry explicit seeds, so the same spec
produces the same profile in any process; ``run_sessions_parallel(specs,
workers=1)`` and ``workers=N`` are verified byte-equivalent in
``tests/engine/test_parallel.py``.
"""

import multiprocessing
import os
import traceback

from repro.engine.session import run_session
from repro.errors import WorkerError


def _run_one(payload):
    """Worker body: run one spec; never let an exception cross the pool.

    An exception raised inside ``imap_unordered`` reaches the parent as
    a bare re-raise with no hint of *which* spec failed (the traceback
    below the pool machinery is gone).  Catch it here and ship the spec
    index, repr, and formatted worker traceback back as data; the parent
    re-raises a :class:`WorkerError` carrying all three.
    """
    index, spec = payload
    try:
        return index, run_session(spec).detach(), None
    except Exception:
        return index, repr(spec), traceback.format_exc()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sessions_parallel(specs, workers=None):
    """Run every spec; return detached results in spec order.

    *workers* defaults to ``min(len(specs), cpu_count)``; ``workers <= 1``
    runs inline (no processes), which keeps single-session calls and
    restricted environments on the exact same code path.
    """
    specs = list(specs)
    if not specs:
        return []
    if workers is None:
        workers = min(len(specs), os.cpu_count() or 1)
    if workers <= 1 or len(specs) == 1:
        return [run_session(spec).detach() for spec in specs]

    results = [None] * len(specs)
    with _pool_context().Pool(processes=workers) as pool:
        for index, result, failure in pool.imap_unordered(
                _run_one, list(enumerate(specs))):
            if failure is not None:
                raise WorkerError(
                    "spec %d (%s) failed in a worker process\n"
                    "--- worker traceback ---\n%s"
                    % (index, result, failure))
            results[index] = result
    return results

