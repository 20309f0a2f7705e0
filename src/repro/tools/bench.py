"""`repro bench`: the committed simulator-throughput trajectory.

Runs a pinned workload set on all three cores (out-of-order, in-order,
SMT) with no probes attached, plus one out-of-order row with paired
ProfileMe sampling on (what profiling costs), and writes a
``BENCH_core_throughput.json`` document carrying cycles/s, retired
instructions/s, machine info, and the git revision.  The ``--quick``
flavour runs smaller rows and has its own committed document,
``BENCH_core_throughput_quick.json``, so every quick row has a
baseline.  Committing the documents per PR turns isolated numbers into
a perf trajectory, and ``diff_lines`` renders the comparison against
the committed baseline.

The pinned set is deliberately small and fixed: trajectory points are
only comparable if every change measures the same work.  Simulated
cycle counts are machine-independent, so a cycle-count mismatch against
the baseline means the *simulation* changed (flagged loudly); wall-clock
throughput is hardware-dependent and reported as an informational
delta.  Only the cycle, retired and samples columns gate.  Wall-clock
rows are best-of-N timings with no host-speed normalisation, so two
rows of one document are not comparable with each other either: a
host whose speed drifts between rows can make the ProfileMe-on row
read faster than the probe-free row of the same workload.  The cost
of profiling is layerbench's traced ``profileme.overhead_frac``.
"""

import hashlib
import json
import platform
import subprocess
import time
import timeit

from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads.suite import suite_program

BENCH_KIND = "repro-bench-core-throughput"
BENCH_VERSION = 1
DEFAULT_OUTPUT = "BENCH_core_throughput.json"
QUICK_OUTPUT = "BENCH_core_throughput_quick.json"

# (workload, scale) per single-context core; one pair for SMT.
FULL_WORKLOADS = (("compress", 2), ("gcc", 1), ("li", 1))
QUICK_WORKLOADS = (("compress", 1),)
SMT_PAIR = ("compress", "li")
SMT_MAX_CYCLES = 200_000

# Two-speed acceptance pair: (workload, scale, mean_interval, window).
# The full flavour pins a >= 10^6-retired-instruction run so the
# detailed-vs-two-speed speedup is measured at profiling scale; both
# rows use one timing repeat (the detailed row alone dominates bench
# wall-clock, and its cycle count is deterministic either way).
# Window 400 (not 2000): ~100 retired per sample point is ample for
# pipeline warm-up (the warm-up prefix is window // 4) and keeps the
# detailed fraction small enough that the trace-cache fast-forward
# dominates — the configuration a profiling user would actually run.
TWOSPEED_FULL = ("compress", 28, 50_000, 400)
TWOSPEED_QUICK = ("compress", 2, 5_000, 400)

# Functional-interpreter rows: the decoded-block trace-cache engine
# (repro.cpu.tracecache) that two-speed fast-forward and functional
# profiling run on.  It has no cycle axis, so `retired`/`samples` are
# its determinism guard and retired instr/s its throughput.
INTERP_FULL = (("compress", 12), ("li", 8))
INTERP_QUICK = (("compress", 4),)

# ProfileMe-on row, in both flavours: paired sampling on the detailed
# out-of-order core over branchy gcc, (workload, scale, mean_interval).
# `samples` is its determinism guard.
PROFILEME_ROW = ("gcc", 1, 100)

# Wire rows: push encode and shard fold of that session's samples in
# ServiceSink-sized batches, (quick, full) passes per timing; `records`
# and the sha256 `digest` of the payloads / folded export guard them.
WIRE_BATCH = 256
WIRE_PASSES = (50, 200)


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip()
        if not rev:
            return "unknown"
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        if status.stdout.strip():
            rev += "+"  # measured tree has uncommitted changes
        return rev
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def machine_info():
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def _measure(spec, repeats):
    """Run *spec* `repeats` times; keep the best wall-clock run."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_session(spec)
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, result)
    wall, result = best
    entry = {
        "cycles": result.cycles,
        "retired": result.stats.retired,
        "wall_s": round(wall, 6),
        "cycles_per_sec": int(result.cycles / wall) if wall else 0,
        "retired_per_sec": int(result.stats.retired / wall) if wall else 0,
    }
    if result.database is not None:
        entry["samples"] = result.database.total_samples
    return entry


def _measure_twospeed(quick, progress):
    """Detailed-vs-two-speed rows at the same sampling configuration.

    Both rows carry ``samples``: the profile a two-speed run delivers is
    its whole point, so a drifting sample count is a behavior change
    even when wall-clock improves (``diff_lines`` flags it).
    """
    name, scale, interval, window = TWOSPEED_QUICK if quick else TWOSPEED_FULL
    program = suite_program(name, scale=scale)
    profile = ProfileMeConfig(mean_interval=interval, seed=7)
    label = "%s@%d/S=%d" % (name, scale, interval)
    rows = {}
    for mode in ("detailed", "two-speed"):
        if progress:
            progress("twospeed/%s/%s" % (label, mode))
        kwargs = dict(program=program, profile=profile, keep_records=False)
        if mode == "two-speed":
            kwargs.update(exec_mode="two-speed", window=window)
        rows["%s/%s" % (label, mode)] = _measure(SessionSpec(**kwargs), 1)
    detailed = rows["%s/detailed" % label]
    two_speed = rows["%s/two-speed" % label]
    if detailed["retired_per_sec"]:
        two_speed["speedup_vs_detailed"] = round(
            two_speed["retired_per_sec"] / detailed["retired_per_sec"], 2)
    return rows


def _measure_interpreter(quick, repeats, progress):
    """Trace-cache interpreter rows (fused-block functional profiling)."""
    from repro.cpu.functional import FunctionalProfiler

    rows = {}
    for name, scale in (INTERP_QUICK if quick else INTERP_FULL):
        label = "%s@%d" % (name, scale)
        if progress:
            progress("interpreter/%s" % label)
        best = None
        for _ in range(repeats):
            profiler = FunctionalProfiler(
                suite_program(name, scale=scale),
                profile=ProfileMeConfig(mean_interval=5_000, seed=7),
                collect_truth=False)
            start = time.perf_counter()
            run = profiler.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, run)
        wall, run = best
        rows[label] = {
            "cycles": 0,  # the interpreter has no cycle axis
            "retired": run.retired,
            "samples": run.database.total_samples,
            "wall_s": round(wall, 6),
            "cycles_per_sec": 0,
            "retired_per_sec": int(run.retired / wall) if wall else 0,
        }
    return rows


def _measure_wire(quick, repeats, progress):
    """``wire/encode`` and ``wire/fold`` rows: records/s, best of
    *repeats* timings of the pass count (garbage collection off)."""
    from repro.analysis.persistence import canonical_json
    from repro.service.fold import ShardFolder
    from repro.service.protocol import encode_push_payload

    name, scale, interval = PROFILEME_ROW
    pairs = run_session(SessionSpec(
        program=suite_program(name, scale=scale),
        profile=ProfileMeConfig(mean_interval=interval, seed=7,
                                paired=True))).pairs
    batches = [pairs[i:i + WIRE_BATCH]
               for i in range(0, len(pairs), WIRE_BATCH)]

    def encode():
        return [encode_push_payload(batch) for batch in batches]

    def fold():
        folder = ShardFolder()
        for payload, _ in encoded:
            folder.fold_payload(payload)
        return folder.database

    encoded = encode()
    records = sum(members for _, members in encoded)
    passes = WIRE_PASSES[0 if quick else 1]
    rows = {}
    for step, run, output in (
            ("encode", encode, b"".join(payload for payload, _ in encoded)),
            ("fold", fold, canonical_json(fold().to_dict()).encode())):
        label = "%s/%s@%d/S=%d/paired" % (step, name, scale, interval)
        if progress:
            progress("wire/" + label)
        wall = min(timeit.repeat(run, number=passes, repeat=repeats))
        rows[label] = {"cycles": 0, "records": records,
                       "digest": hashlib.sha256(output).hexdigest(),
                       "wall_s": round(wall, 6),
                       "records_per_sec": int(records * passes / wall)}
    return rows


def run_bench(quick=False, repeats=None, progress=None):
    """Run the pinned benchmark matrix; returns the result document."""
    if repeats is None:
        repeats = 1 if quick else 3
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    scale = 1
    results = {"ooo": {}, "inorder": {}, "smt": {}}

    programs = {}
    for name, wl_scale in workloads:
        programs[(name, wl_scale)] = suite_program(name, scale=wl_scale)
    for kind in ("ooo", "inorder"):
        for name, wl_scale in workloads:
            label = "%s@%d" % (name, wl_scale)
            if progress:
                progress("%s/%s" % (kind, label))
            spec = SessionSpec(program=programs[(name, wl_scale)],
                               core_kind=kind)
            results[kind][label] = _measure(spec, repeats)

    pair_label = "+".join(SMT_PAIR)
    if progress:
        progress("smt/%s" % pair_label)
    smt_programs = tuple(suite_program(name, scale=scale)
                         for name in SMT_PAIR)
    smt_spec = SessionSpec(programs=smt_programs, core_kind="smt",
                           max_cycles=SMT_MAX_CYCLES)
    results["smt"][pair_label] = _measure(smt_spec, repeats)

    name, wl_scale, interval = PROFILEME_ROW
    label = "%s@%d/S=%d/paired" % (name, wl_scale, interval)
    if progress:
        progress("profileme/%s" % label)
    results["profileme"] = {label: _measure(SessionSpec(
        program=suite_program(name, scale=wl_scale),
        profile=ProfileMeConfig(mean_interval=interval, seed=7, paired=True),
        keep_records=False), repeats)}

    results["interpreter"] = _measure_interpreter(quick, repeats, progress)
    results["twospeed"] = _measure_twospeed(quick, progress)
    results["wire"] = _measure_wire(quick, repeats, progress)

    return {
        "kind": BENCH_KIND,
        "version": BENCH_VERSION,
        "quick": bool(quick),
        "repeats": repeats,
        "git_rev": git_revision(),
        "machine": machine_info(),
        "results": results,
    }


def load_document(path):
    with open(path) as stream:
        document = json.load(stream)
    if document.get("kind") != BENCH_KIND:
        raise ValueError("%s is not a %s document" % (path, BENCH_KIND))
    return document


def save_document(document, path):
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def diff_lines(baseline, current):
    """Human-readable comparison of two bench documents.

    Returns (lines, simulation_changed): cycle-count mismatches mean
    the simulated machine behaves differently (the cycle-exactness
    guard), while throughput deltas are hardware-plus-code speed.
    """
    lines = []
    simulation_changed = False
    # Cycle counts compare across flavours (same workload label means
    # the same simulated work), but best-of-N wall-clock only compares
    # within the same flavour.
    same_flavour = baseline.get("quick") == current.get("quick")
    if not same_flavour:
        lines.append("baseline is a %s run, current is a %s run — "
                     "comparing cycle counts only"
                     % ("quick" if baseline.get("quick") else "full",
                        "quick" if current.get("quick") else "full"))
    base_rev = baseline.get("git_rev", "?")
    base_results = baseline.get("results", {})
    for kind in sorted(current.get("results", {})):
        for label, entry in sorted(current["results"][kind].items()):
            base = base_results.get(kind, {}).get(label)
            if base is None:
                lines.append("%s/%s: no baseline entry" % (kind, label))
                continue
            if base["cycles"] != entry["cycles"]:
                simulation_changed = True
                lines.append(
                    "%s/%s: SIMULATION CHANGED — %d cycles vs %d in "
                    "baseline %s" % (kind, label, entry["cycles"],
                                     base["cycles"], base_rev))
                continue
            if ("retired" in base and "retired" in entry
                    and base["retired"] != entry["retired"]):
                # Retired counts are deterministic even for rows with
                # no cycle axis (the interpreter rows); a drift means
                # the simulated program ran differently.
                simulation_changed = True
                lines.append(
                    "%s/%s: SIMULATION CHANGED — %d retired vs %d in "
                    "baseline %s" % (kind, label, entry["retired"],
                                     base["retired"], base_rev))
                continue
            if base.get("digest") != entry.get("digest"):
                simulation_changed = True  # payload or folded-export bytes
                lines.append("%s/%s: WIRE BYTES CHANGED — digest %s vs %s in "
                             "baseline %s" % (kind, label, entry.get("digest"),
                                              base.get("digest"), base_rev))
                continue
            if ("samples" in base and "samples" in entry
                    and base["samples"] != entry["samples"]):
                # Sampled runs are deterministic: a moving sample count
                # means the sampling (or two-speed window placement)
                # behavior changed, even with matching cycle counts.
                simulation_changed = True
                lines.append(
                    "%s/%s: SAMPLE ESTIMATE DRIFT — %d samples vs %d in "
                    "baseline %s" % (kind, label, entry["samples"],
                                     base["samples"], base_rev))
                continue
            # Rows without a cycle axis report retired instr/s
            # (interpreter) or records/s (wire) instead.
            if entry.get("cycles_per_sec"):
                key, unit = "cycles_per_sec", "cycles/s"
            elif "records_per_sec" in entry:
                key, unit = "records_per_sec", "records/s"
            else:
                key, unit = "retired_per_sec", "instr/s"
            base_rate = base.get(key, 0)
            rate = entry.get(key, 0)
            if same_flavour and base_rate:
                delta = 100.0 * (rate - base_rate) / base_rate
                lines.append("%s/%s: %d %s (%+.1f%% vs %s)"
                             % (kind, label, rate, unit, delta, base_rev))
            else:
                lines.append("%s/%s: %d %s, cycles match %s"
                             % (kind, label, rate, unit, base_rev))
    return lines, simulation_changed
