"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 layerbench/spread.py --workloads profile-detailed,optimize \
        --seeds 1-10 --seconds 15

Runs ``run.py`` once per workload and seed (``--trace 0``), one run at a
time, and prints per metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  The raw values are written to
``.bench_out/spread-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from benchstats import quartile_spread
from hostproc import OUT, ROOT


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", default="15")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as stream:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(stream)["end_to_end"]}
    values = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            begin = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "layerbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"],
                capture_output=True, text=True, cwd=str(ROOT))
            if run.returncode:
                print("%s seed %d failed (exit %d):\n%s"
                      % (workload, seed, run.returncode, run.stderr[-2000:]))
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            print("%s seed %d: %.1f s, correct %s, %s" % (
                workload, seed, time.perf_counter() - begin,
                result["correct"],
                ", ".join("%s %.6g" % (name, metric["value"]) for name, metric
                          in result["metrics"].items())), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    name, []).append(metric["value"])
    print("\n| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %s |"
                  % (workload, name, q2, q1, q3, quartile_spread(series),
                     bounds[name]))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spread-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(path, "w") as stream:
        json.dump({"seeds": args.seeds, "seconds": args.seconds,
                   "values": values}, stream, indent=1)
    print("\nvalues in %s" % path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
