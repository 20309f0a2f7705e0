"""The repository's benchmark: one command, four workloads, two kinds of run.

Usage, from the repository root::

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: profile-detailed, profile-twospeed, ingest-query, optimize, or
``all`` to run each in turn, each in a fresh process (see
layerbench/README.md for why each was chosen and what it measures).  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` is the separate traced run
that reports per-layer metrics, the residual and the tracing overhead.
Every run checks the program's outputs.  The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark imports the program from ``src/`` of the checkout it sits in
and exits non-zero, without a result line, when that is missing.
"""

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def workloads():
    import wl_ingest
    import wl_optimize
    import wl_profile

    return {
        "profile-detailed":
            lambda *a: wl_profile.run(wl_profile.DETAILED, *a),
        "profile-twospeed":
            lambda *a: wl_profile.run(wl_profile.TWOSPEED, *a),
        "ingest-query": wl_ingest.run,
        "optimize": wl_optimize.run,
    }


def declared_units(trace):
    """{metric: unit} for the end-to-end metrics BENCHMARK.json declares,
    or with *trace* for its per-layer metrics."""
    with open(ROOT / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def run_workload(run, units, seed, seconds, trace):
    attempted, failed, metrics, notes = run(seed, seconds, trace)
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise RuntimeError("metrics not declared for this kind of run in "
                           "BENCHMARK.json: %s" % ", ".join(undeclared))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise RuntimeError("end-to-end metrics not measured: %s"
                           % ", ".join(missing))
    if missing:
        notes.append("layers this workload does not run or this run does "
                     "not measure, reported as 0: %s" % ", ".join(missing))
    metrics = {name: metrics.get(name, 0.0) for name in units}
    for note in notes:
        print("# " + note)
    for name, value in metrics.items():
        print("%-40s %16.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)


def run_each(names, args):
    """``--workload all``: every workload in a fresh process of its own, so
    none inherits another's CPU pinning or peak RSS."""
    status = 0
    for name in names:
        print("## %s" % name, flush=True)
        child = subprocess.Popen([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)])
        try:
            status = child.wait() or status
        finally:
            if child.poll() is None:
                child.terminate()
                child.wait()
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("layerbench: no program to measure: %s/repro is missing"
              % SRC, file=sys.stderr)
        return 2
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    table = workloads()
    if args.workload == "all":
        return run_each(list(table), args)
    if args.workload not in table:
        print("layerbench: unknown workload %r (have %s, all)"
              % (args.workload, ", ".join(table)), file=sys.stderr)
        return 2
    run_workload(table[args.workload], declared_units(args.trace),
                 args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
