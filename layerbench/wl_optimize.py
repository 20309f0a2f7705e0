"""Workload ``optimize``: the ``repro optimize`` default loop on compress.

Each repeat is one ``pgo.run_pgo`` with every pass (profile, plan, apply,
measure), its sampling seed drawn from the workload seed.  The report must
keep the committed report shape and the baseline cycles must match the
pinned values.  The workload's ``quality`` is the median of the ``combined``
plan's per-replicate reductions over the first ``FIXED_REPEATS`` repeats,
so it depends on the seed only.  Per-replicate reductions take a few
discrete values (0.295, 0.339, 0.032 and -0.159 were seen on compress):
a plan either gets the hot branches' hints right or misses one.  Their
mean over 9 plans spread by 0.22 between seeds; the median moves only
when most plans go wrong, which is the regression it is there to show.

A seed's plans also decide how many sessions a repeat simulates (8, 10 or
12 were seen), so a repeat's wall time (``latency_ms``) moves with the
seed by up to 50%.  ``throughput_per_s`` divides the instructions those
sessions retired by the same wall time, which takes the seed out.
"""

import json
import random
import time
from statistics import median

import hostproc
import wl_profile
from hostspeed import HostSpeed
from tracing import Patches, Tracer, instrumented
from truthdata import PGO_TRUTH, load_truth

FIXED_REPEATS = 3
SCHEMA = hostproc.ROOT / "tests" / "data" / "pgo_report_schema.json"
# Report paths whose shape is specific to one pass's transformations, or
# present only with --compare-truth; the committed schema comes from a
# prefetch-only comparison run, so these are left out on both sides.
VARIABLE_PATHS = ("passes[].transformations[]", "comparison.")


def comparable_schema(paths, unset=frozenset()):
    """*paths* without the variable ones and without the leaves in *unset*
    (options left at None: a null leaf matches a leaf of any type)."""
    return sorted(path for path in paths
                  if not path.startswith(VARIABLE_PATHS)
                  and path.rsplit(": ", 1)[0] not in unset)


def check_report(report, committed, truth):
    from repro.analysis.persistence import load_pgo_report, save_pgo_report
    from repro.pgo.report import document_schema

    problems = []
    hostproc.OUT.mkdir(exist_ok=True)
    path = hostproc.OUT / "pgo-report.json"
    save_pgo_report(report.document, path)
    document = load_pgo_report(path)
    paths = document_schema(document)
    unset = frozenset(path[:-len(": null")] for path in paths
                      if path.endswith(": null"))
    schema = comparable_schema(paths, unset)
    expected = comparable_schema(committed, unset)
    if schema != expected:
        problems.append("report shape differs from %s: +%s -%s" % (
            SCHEMA.name, sorted(set(schema) - set(expected)),
            sorted(set(expected) - set(schema))))
    for measurement in report.measurements:
        pinned = truth["baseline_cycles"].get(measurement.name)
        if measurement.baseline_cycles != pinned:
            problems.append("%s baseline %d cycles, pinned %s"
                            % (measurement.name,
                               measurement.baseline_cycles, pinned))
    return problems


def options(seed):
    from repro.pgo.pipeline import PgoOptions

    return PgoOptions(seed=seed)


def timed_pgo(program, seed, speed, progress=None):
    """One ``run_pgo``; returns (report, nominal seconds, raw seconds)."""
    from repro.pgo.pipeline import run_pgo

    return speed.measure(run_pgo, program, options(seed), workload="compress",
                         progress=progress)


def simulated_instructions(sweeps):
    """Instructions retired by the sessions of *sweeps* that simulated
    (cached outcomes were loaded, not simulated)."""
    from repro.engine.sweep import STATUS_OK

    return sum(outcome.result.stats.retired for sweep in sweeps
               for outcome in sweep.outcomes if outcome.status == STATUS_OK)


def run(seed, seconds, trace):
    from repro.workloads.suite import suite_program

    with open(SCHEMA) as stream:
        committed = json.load(stream)
    truth = load_truth(PGO_TRUTH)
    program = suite_program("compress", scale=1)
    rng = random.Random(seed)
    hostproc.pin_to_one_cpu()
    if trace:
        return traced_run(program, committed, truth, rng, seed)

    speed = HostSpeed()
    walls, raw_walls, rates, reductions, setup, notes = [], [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while (attempted < FIXED_REPEATS
           or len(setup) < hostproc.SETUP_REPEATS
           or time.perf_counter() - started < seconds):
        # Set-up samples are spread over the first repeats, so one slow
        # stretch of the host does not decide their median.
        share = -(-hostproc.SETUP_REPEATS * (attempted + 1) // FIXED_REPEATS)
        while len(setup) < min(hostproc.SETUP_REPEATS, share):
            setup.append(hostproc.timed_setup("optimize", speed))
        sweeps = []
        recorders = sweep_recorders(sweeps)
        try:
            report, wall, raw = timed_pgo(program, rng.randrange(1, 2 ** 31),
                                          speed)
        finally:
            recorders.restore()
        walls.append(wall)
        rates.append(simulated_instructions(sweeps) / wall)
        raw_walls.append(raw)
        attempted += 1
        problems = check_report(report, committed, truth)
        if problems:
            failed += 1
            notes.extend("run %d: %s" % (attempted, p) for p in problems)
        if attempted <= FIXED_REPEATS:
            combined = report.measurement_for("combined")
            reductions += [reduction / combined.baseline_cycles
                           for reduction in combined.reductions]
    notes.append("%d run_pgo repeats on compress@1, median wall (raw host "
                 "time %.3f s; host speed factor median %.3f); cycle "
                 "reduction is the median of %d replicate plans: %s"
                 % (attempted, median(raw_walls), median(speed.factors),
                    len(reductions), " ".join("%.3f" % r
                                              for r in sorted(reductions))))
    metrics = {
        "throughput_per_s": median(rates),
        "latency_ms": 1000.0 * median(walls),
        "quality": median(reductions),
        "setup_s": median(setup),
        "peak_rss_mb": hostproc.self_peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics, notes


def sweep_recorders(sweeps):
    """Patches that append each ``run_sweep`` result to *sweeps*.

    The sweep entry point is looked up in the modules that call it.
    """
    from repro.pgo import measure, pipeline

    def recording(func):
        def run_sweep(*args, **kwargs):
            result = func(*args, **kwargs)
            sweeps.append(result)
            return result
        return run_sweep

    patches = Patches()
    for module in (pipeline, measure):
        patches.set(module, "run_sweep", recording(module.run_sweep))
    return patches


def trace_targets():
    """The detailed profile workload's layers (run_pgo's sessions run the
    same core and ProfileMe stack), plus the sweeps and the planner."""
    from repro.pgo import measure, pipeline

    return wl_profile.trace_targets(wl_profile.DETAILED) + [
        (pipeline, "run_sweep", "engine.sweep"),
        (measure, "run_sweep", "engine.sweep"),
        (pipeline, "plan_passes", "pgo.plan_passes")]


def session_layers(sweeps, tracer):
    """Core and ProfileMe figures of the sessions run_pgo simulated:
    medians over every session, ProfileMe ones over the profiling
    sessions; layer times are per run."""
    from repro.engine.sweep import STATUS_OK

    results = [outcome.result for sweep in sweeps
               for outcome in sweep.outcomes if outcome.status == STATUS_OK]
    profiled = [result for result in results if result.database is not None]
    stats = [wl_profile.sampling_stats(result) for result in profiled]

    def probe(name):
        return median(result.probes[name]["value"] for result in results)

    return {
        "cpu.core.ipc": median(result.stats.ipc for result in results),
        "branch.mispredict_rate": probe("branch.mispredict_rate"),
        "mem.l1d.miss_rate": probe("mem.l1d.miss_rate"),
        "profileme.unit.callback_s": tracer.self_s["profileme.unit.callback"],
        "profileme.driver.interrupt_s":
            tracer.self_s["profileme.driver.interrupt"],
        "analysis.database.add_s": tracer.self_s["analysis.database.add"],
        "profileme.samples": median(result.database.total_samples
                                    for result in profiled),
        "profileme.useful_fraction": median(s.useful_fraction for s in stats),
        "profileme.dropped_busy_frac": median(s.dropped_busy / s.selections
                                              for s in stats),
    }


def traced_run(program, committed, truth, rng, seed):
    """Per-layer metrics: one untraced repeat, one traced, one with the
    ground-truth comparison phase (off by default) for ``pgo.compare_s``.
    Layer times are raw host seconds; the two repeats compared for the
    tracing overhead are at nominal host speed."""
    from repro.pgo.pipeline import PgoOptions, run_pgo

    notes = []
    attempted = failed = 0
    run_seed = rng.randrange(1, 2 ** 31)

    def checked(report):
        nonlocal attempted, failed
        attempted += 1
        problems = check_report(report, committed, truth)
        if problems:
            failed += 1
            notes.extend(problems)
        return report

    speed = HostSpeed(sample_during=False)
    report, plain_s, _ = timed_pgo(program, run_seed, speed)
    checked(report)

    tracer, sweeps, phases = Tracer(), [], []
    clock = time.perf_counter

    def progress(event):
        phases.append((event["phase"], clock()))

    recorders = sweep_recorders(sweeps)
    try:
        with instrumented(tracer, trace_targets()):
            report, traced_s, raw_s = timed_pgo(program, run_seed, speed,
                                                progress=progress)
    finally:
        recorders.restore()
    checked(report)
    # run_pgo announces "profile" before profiling, "plan" once planning
    # is done and "measure" right before measuring, which is the rest of
    # the run; the planning calls carry their own spans.
    marks = dict(phases)
    plan_s = tracer.total_s["pgo.plan_passes"]
    phase_s = {"profile": marks["plan"] - marks["profile"] - plan_s,
               "plan": plan_s,
               "measure": raw_s - (marks["plan"] - marks["profile"])}

    compare_phases = []
    begin = clock()
    report = run_pgo(program, PgoOptions(seed=run_seed, compare_truth=True),
                     workload="compress",
                     progress=lambda e: compare_phases.append(
                         (e["phase"], clock())))
    compare_end = clock()
    attempted += 1
    compare_s = compare_end - dict(compare_phases)["compare"]
    if report.comparison is None:
        failed += 1
        notes.append("compare_truth run produced no comparison")

    metrics = {
        "pgo.profile_s": phase_s["profile"],
        "pgo.plan_s": phase_s["plan"],
        "pgo.measure_s": phase_s["measure"],
        "pgo.compare_s": compare_s,
        "engine.sweep.sessions": sum(s.metrics.total for s in sweeps),
        "engine.sweep.cached": sum(s.metrics.cached for s in sweeps),
        "cpu.ooo.run_self_s": tracer.self_s["cpu.ooo.run"],
        "trace.residual_frac": 1.0 - tracer.attributed_s() / raw_s,
        "trace.overhead_frac": traced_s / plain_s - 1,
        "bench.host_speed_factor": median(speed.factors),
    }
    metrics.update(session_layers(sweeps, tracer))
    hostproc.OUT.mkdir(exist_ok=True)
    path = hostproc.OUT / ("trace-optimize-seed%d.json" % seed)
    tracer.write(path)
    notes.append("run_pgo %.3f s untraced, %.3f s traced (nominal host "
                 "speed); compare phase %.3f s of a %.3f s --compare-truth "
                 "run; trace in %s"
                 % (plain_s, traced_s, compare_s, compare_end - begin,
                    path.relative_to(hostproc.ROOT)))
    return attempted, failed, metrics, notes
