"""Workloads ``profile-detailed`` and ``profile-twospeed``.

Both run ``run_session`` with ProfileMe on, one fresh session after another
(every session starts with cold caches and predictors), each with its own
sampling seed drawn from the workload seed.  Every session is checked
against the committed reference-interpreter outputs.  The first
``envelope_sessions`` sessions are pooled, in groups, into the profiles
envelope fraction scores (the workload's ``quality``), so that metric
depends on the seed only.  Session times are at nominal host speed (see
``hostspeed``).
"""

import random
import time
from statistics import median

from repro.cpu.probes import SLOT_INST, Probe

import hostproc
from hostspeed import HostSpeed
from tracing import Patches, Tracer, instrumented
from truthdata import load_truth, state_digest

K_MIN = 4  # PCs need at least this many retired samples to be scored


class ProfileWorkload:
    def __init__(self, name, label, program, scale, setup_kind, interval,
                 envelope_sessions, envelope_group, paired=False,
                 exec_mode="detailed", window=None):
        self.name = name
        self.label = label
        self.program_name = program
        self.scale = scale
        self.setup_kind = setup_kind
        self.interval = interval
        self.envelope_sessions = envelope_sessions
        self.envelope_group = envelope_group
        self.paired = paired
        self.exec_mode = exec_mode
        self.window = window

    def spec(self, program, seed, profile=True):
        from repro.engine.session import SessionSpec
        from repro.profileme.unit import ProfileMeConfig

        kwargs = dict(program=program, keep_records=False)
        if profile:
            kwargs["profile"] = ProfileMeConfig(
                mean_interval=self.interval, paired=self.paired, seed=seed)
        if self.exec_mode == "two-speed":
            kwargs.update(exec_mode="two-speed", window=self.window)
        return SessionSpec(**kwargs)


# The envelope pools each group of `envelope_group` consecutive sessions
# into one profile and scores every group: enough pooling that a scored
# PC expects well over K_MIN samples (otherwise requiring k >= K_MIN
# selects lucky PCs and biases the estimates high), and as many groups
# as fit, because the fraction's noise falls with the number of PCs
# scored.  compress has only ~60 hot PCs and S=50000 gives ~40 samples a
# session, so its 12 sessions form a single group.
DETAILED = ProfileWorkload(
    "profile-detailed", "gcc@2", "gcc", 2, "detailed", interval=100,
    envelope_sessions=8, envelope_group=2, paired=True)
TWOSPEED = ProfileWorkload(
    "profile-twospeed", "compress@56", "compress", 56, "twospeed",
    interval=50_000, envelope_sessions=12, envelope_group=12,
    exec_mode="two-speed", window=400)


# ----------------------------------------------------------------------
# Checks and the envelope.


def final_state(result):
    if result.two_speed is not None:
        snap = result.two_speed.final_state
        return snap.regs, snap.memory
    return result.core.architectural_registers(), result.core.memory.snapshot()


def sampling_stats(result):
    return result.sampling_stats or result.unit.stats


def check_session(result, truth):
    """Problems with one session's outputs (empty when it is correct)."""
    problems = []
    if result.stats.retired != truth["retired"]:
        problems.append("retired %d, reference interpreter %d"
                        % (result.stats.retired, truth["retired"]))
    if state_digest(*final_state(result)) != truth["state_digest"]:
        problems.append("final architectural state differs from the "
                        "reference interpreter")
    stats = sampling_stats(result)
    if result.driver.delivered != stats.records_delivered:
        problems.append("driver received %d samples, unit delivered %d"
                        % (result.driver.delivered, stats.records_delivered))
    # Every latched member of a delivered sample is one database sample;
    # unpaired, that is one per delivered record.
    members = (stats.tagged + stats.offpath_selections
               if result.spec.profile.effective_group_size > 1
               else stats.records_delivered)
    if result.database.total_samples != members:
        problems.append("database holds %d samples, unit delivered %d"
                        % (result.database.total_samples, members))
    return problems


class EnvelopePool:
    """Per-PC retired-sample counts pooled over a group of sessions."""

    def __init__(self):
        self.sessions = 0
        self.samples = 0
        self.fetched = 0
        self.retired = 0
        self.retired_k = {}

    def add(self, result):
        from repro.events import Event

        self.sessions += 1
        self.samples += result.database.total_samples
        self.fetched += result.stats.fetched
        self.retired += result.stats.retired
        for pc, profile in result.database.per_pc.items():
            k = profile.event_count(Event.RETIRED)
            self.retired_k[pc] = self.retired_k.get(pc, 0) + k

    def score(self, retire_counts, interval):
        """(PCs inside 1 +- 1/sqrt(k), PCs with k >= K_MIN).

        *interval* is the sampling interval S of one session; the pooled
        estimate of a PC's count in one run is ``k * S / sessions``.
        """
        from repro.analysis.estimators import relative_error_envelope

        scored = inside = 0
        for pc, k in self.retired_k.items():
            actual = retire_counts.get(pc, 0)
            if k < K_MIN or actual == 0:
                continue
            scored += 1
            estimate = k * interval / self.sessions
            if abs(estimate / actual - 1.0) <= relative_error_envelope(k):
                inside += 1
        return inside, scored


def envelope_fraction(workload, pools, retire_counts):
    """Share of scored PCs inside the envelope, over every group."""
    inside = scored = 0
    for pool in pools:
        pool_inside, pool_scored = pool.score(
            retire_counts, pooled_interval(workload, pool))
        inside += pool_inside
        scored += pool_scored
    if not scored:
        raise RuntimeError("no PC reached %d samples" % K_MIN)
    return inside / scored, scored


def pooled_interval(workload, pool):
    """S for the estimator, self-calibrated as in section 5.1: an aggregate
    count divided by the samples taken.  Detailed runs count fetched
    instructions; two-speed runs fast-forward most instructions outside
    the detailed windows, where the sample points are drawn in retired
    instructions, so they count those."""
    from repro.analysis.convergence import effective_interval

    if workload.exec_mode == "detailed":
        return effective_interval(pool.fetched, pool.samples)
    return effective_interval(pool.retired, pool.samples)


# ----------------------------------------------------------------------
# Timed run.


def run(workload, seed, seconds, trace):
    from repro.engine.session import run_session
    from repro.workloads.suite import suite_program

    truth = load_truth(workload.label)
    program = suite_program(workload.program_name, scale=workload.scale)
    rng = random.Random(seed)
    hostproc.pin_to_one_cpu()
    if trace:
        return traced_run(workload, program, truth, rng, seed)

    speed = HostSpeed()
    pools = [EnvelopePool() for _ in range(workload.envelope_sessions
                                           // workload.envelope_group)]
    rates, raw_rates, walls, setup, notes = [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while (attempted < workload.envelope_sessions
           or len(setup) < hostproc.SETUP_REPEATS
           or time.perf_counter() - started < seconds):
        spec = workload.spec(program, rng.randrange(1, 2 ** 31))
        result, wall, raw = speed.measure(run_session, spec)
        attempted += 1
        problems = check_session(result, truth)
        if problems:
            failed += 1
            notes.extend("session %d: %s" % (attempted, p) for p in problems)
        walls.append(wall)
        rates.append(result.stats.retired / wall)
        raw_rates.append(result.stats.retired / raw)
        if attempted <= workload.envelope_sessions:
            pools[(attempted - 1) // workload.envelope_group].add(result)
        # Set-up samples are spread over the run, between sessions, so
        # one slow stretch of the host does not decide their median.
        if len(setup) < hostproc.SETUP_REPEATS:
            setup.append(hostproc.timed_setup(workload.setup_kind, speed))
    fraction, scored = envelope_fraction(workload, pools,
                                         truth["retire_counts"])
    notes.append("%d sessions of %s, median of per-session rates (raw "
                 "host time: %.0f instr/s; host speed factor median %.3f); "
                 "envelope over the first %d sessions in groups of %d: "
                 "%d PC scores (k >= %d)"
                 % (attempted, workload.label, median(raw_rates),
                    median(speed.factors), workload.envelope_sessions,
                    workload.envelope_group, scored, K_MIN))
    metrics = {
        "throughput_per_s": median(rates),
        "latency_ms": 1000.0 * median(walls),
        "quality": fraction,
        "setup_s": median(setup),
        "peak_rss_mb": hostproc.self_peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics, notes


# ----------------------------------------------------------------------
# Traced run.


class IdleProbe(Probe):
    """Counts cycles in which nothing was fetched, issued or retired."""

    def __init__(self):
        self.cycles = 0
        self.idle = 0
        self._busy = False

    def on_fetch_slots(self, cycle, slots):
        for slot in slots:
            if slot.kind == SLOT_INST:
                self._busy = True
                return

    def on_issue(self, dyninst, cycle):
        self._busy = True

    def on_retire(self, dyninst, cycle):
        self._busy = True

    def on_cycle_end(self, cycle):
        self.cycles += 1
        if not self._busy:
            self.idle += 1
        self._busy = False


def idle_fraction(workload, program, seed):
    """One untimed session with an IdleProbe on every OOO core it runs."""
    from repro.cpu.ooo.core import OutOfOrderCore
    from repro.engine.session import run_session

    probe = IdleProbe()
    original = OutOfOrderCore.run

    def run_with_probe(core, *args, **kwargs):
        if probe not in core.probes:
            core.add_probe(probe)
        return original(core, *args, **kwargs)

    patches = Patches()
    patches.set(OutOfOrderCore, "run", run_with_probe)
    try:
        run_session(workload.spec(program, seed))
    finally:
        patches.restore()
    return probe.idle / probe.cycles


def trace_targets(workload):
    from repro.analysis.concurrency import PairAnalyzer
    from repro.analysis.database import ProfileDatabase
    from repro.cpu import tracecache
    from repro.cpu.ooo.core import OutOfOrderCore
    from repro.engine import twospeed
    from repro.profileme.driver import ProfileMeDriver
    from repro.profileme.unit import ProfileMeUnit

    targets = [(OutOfOrderCore, "run", "cpu.ooo.run"),
               (ProfileMeDriver, "handle_interrupt",
                "profileme.driver.interrupt"),
               (ProfileDatabase, "add", "analysis.database.add"),
               (PairAnalyzer, "add", "analysis.concurrency.add")]
    targets += [(ProfileMeUnit, callback, "profileme.unit.callback")
                for callback in ("on_fetch_slots", "on_retire", "on_abort",
                                 "on_cycle_end", "finalize")]
    if workload.exec_mode == "two-speed":
        targets += [(twospeed, "fast_forward", "cpu.warm.fast_forward"),
                    (tracecache, "compile_block", "cpu.tracecache.compile"),
                    (twospeed, "OutOfOrderCore",
                     "engine.twospeed.window_build")]
    return targets


def traced_run(workload, program, truth, rng, seed):
    """Per-layer metrics: 3 untraced, 3 traced and one probe session.

    Session walls are at nominal host speed (see ``hostspeed``), sampled
    only around sessions so no sample lands inside a span; layer times
    are raw host seconds, with the host speed factor reported.
    """
    from repro.engine.session import run_session

    seeds = [rng.randrange(1, 2 ** 31) for _ in range(3)]
    speed = HostSpeed(sample_during=False)
    attempted = failed = 0
    notes = []

    def session(spec):
        nonlocal attempted, failed
        result, wall, raw = speed.measure(run_session, spec)
        attempted += 1
        if spec.profile is not None:
            problems = check_session(result, truth)
            if problems:
                failed += 1
                notes.extend(problems)
        return result, wall, raw

    plain = [session(workload.spec(program, s))[1] for s in seeds]
    off = []
    if workload.exec_mode == "detailed":
        off = [session(workload.spec(program, s, profile=False))[1]
               for s in seeds]
    tracer = Tracer()
    with instrumented(tracer, trace_targets(workload)):
        traced = [session(workload.spec(program, s)) for s in seeds]
    idle = idle_fraction(workload, program, seeds[0])

    n = len(traced)
    results = [result for result, _, _ in traced]
    raw_wall = sum(raw for _, _, raw in traced)
    stats = [sampling_stats(result) for result in results]

    def per_session(name):
        return tracer.self_s[name] / n

    metrics = {
        "cpu.ooo.run_self_s": per_session("cpu.ooo.run"),
        "cpu.ooo.idle_cycle_frac": idle,
        "cpu.core.ipc": median(r.stats.ipc for r in results),
        "profileme.unit.callback_s": per_session("profileme.unit.callback"),
        "profileme.driver.interrupt_s":
            per_session("profileme.driver.interrupt"),
        "analysis.database.add_s": per_session("analysis.database.add"),
        "profileme.samples": median(r.database.total_samples
                                    for r in results),
        "profileme.useful_fraction": median(s.useful_fraction
                                            for s in stats),
        "profileme.dropped_busy_frac": median(s.dropped_busy / s.selections
                                              for s in stats),
    }
    if workload.paired:
        metrics["analysis.concurrency.add_s"] = per_session(
            "analysis.concurrency.add")
    if off:
        metrics["profileme.overhead_frac"] = median(plain) / median(off) - 1
        snapshot = results[0].probes
        metrics["branch.mispredict_rate"] = \
            snapshot["branch.mispredict_rate"]["value"]
        metrics["mem.l1d.miss_rate"] = snapshot["mem.l1d.miss_rate"]["value"]
    if workload.exec_mode == "two-speed":
        two = [r.two_speed for r in results]
        metrics.update({
            "cpu.warm.fast_forward_s": per_session("cpu.warm.fast_forward"),
            "cpu.tracecache.compile_s":
                per_session("cpu.tracecache.compile"),
            "cpu.tracecache.blocks":
                tracer.count["cpu.tracecache.compile"] / n,
            "engine.twospeed.window_s":
                (tracer.total_s["cpu.ooo.run"]
                 + tracer.total_s["engine.twospeed.window_build"]) / n,
            "engine.twospeed.windows": tracer.count["cpu.ooo.run"] / n,
            "engine.twospeed.detailed_fraction":
                median(t.detailed_fraction for t in two),
            "engine.twospeed.skipped_samples_frac":
                median(t.skipped_samples / s.selections
                       for t, s in zip(two, stats)),
        })
        if tracer.count["cpu.ooo.run"] != sum(t.windows for t in two):
            failed += 1
            notes.append("traced %d windows, engine reported %s"
                         % (tracer.count["cpu.ooo.run"],
                            [t.windows for t in two]))
    residual = raw_wall - tracer.attributed_s()
    metrics["trace.residual_frac"] = residual / raw_wall
    metrics["trace.overhead_frac"] = \
        sum(wall for _, wall, _ in traced) / n / median(plain) - 1
    metrics["bench.host_speed_factor"] = median(speed.factors)
    hostproc.OUT.mkdir(exist_ok=True)
    path = hostproc.OUT / ("trace-%s-seed%d.json" % (workload.name, seed))
    tracer.write(path)
    notes.append("traced %d sessions: raw wall %.3f s, attributed %.3f s, "
                 "residual %.3f s; trace in %s"
                 % (n, raw_wall, tracer.attributed_s(), residual,
                    path.relative_to(hostproc.ROOT)))
    return attempted, failed, metrics, notes
