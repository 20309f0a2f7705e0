"""Declarative simulation sessions: program + machine + observers.

A :class:`SessionSpec` fully describes one experiment — which programs
run, on which machine model, with which profiling hardware attached —
and :func:`run_session` turns it into a :class:`SessionResult`.  It is
the only way to run a session — examples, benchmarks, the CLI and the
multiprogrammed session all build on it — so there is exactly one place
that wires a machine to its observers::

    result = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=200)))
    result.database.top_by_event(Event.DCACHE_MISS)

Specs are plain picklable data: :func:`repro.engine.sweep.run_sweep`
ships them to worker processes and gets results back, with all
randomness pinned by the seeds the spec carries.
"""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.concurrency import PairAnalyzer
from repro.analysis.database import ProfileDatabase
from repro.analysis.groundtruth import GroundTruthCollector
from repro.counters.counter import EventCounter
from repro.errors import ConfigError
from repro.profileme.driver import ProfileMeDriver
from repro.profileme.unit import ProfileMeConfig, ProfileMeUnit

CORE_KINDS = ("ooo", "inorder", "smt", "multiprog")


def build_core(program, core_kind="ooo", config=None, static_hints=None):
    """Instantiate a single-program core ("ooo" or "inorder").

    *static_hints* switches the fetch unit's direction predictor from
    the default dynamic gshare to a profile-hinted static predictor
    (:class:`repro.branch.predictors.StaticDirectionPredictor`): BTFN
    overridden by the given ``pc -> predicted_taken`` hints.  An empty
    mapping means pure BTFN; ``None`` (default) keeps gshare.
    """
    # Cores are imported lazily: they subclass repro.engine.CoreBase, so
    # importing them at module load would be circular.
    if core_kind == "ooo":
        from repro.cpu.config import MachineConfig
        from repro.cpu.ooo.core import OutOfOrderCore

        cfg = config or MachineConfig.alpha21264_like()
        return OutOfOrderCore(
            program, cfg,
            predictor=_static_predictor(program, cfg, static_hints))
    if core_kind == "inorder":
        from repro.cpu.config import MachineConfig
        from repro.cpu.inorder.core import InOrderCore

        cfg = config or MachineConfig.alpha21164_like()
        return InOrderCore(
            program, cfg,
            predictor=_static_predictor(program, cfg, static_hints))
    raise ConfigError("unknown core kind %r" % (core_kind,))


def _static_predictor(program, cfg, static_hints):
    """Build a static-direction BranchPredictor, or None for the default."""
    if static_hints is None:
        return None
    from repro.branch.predictors import (BranchPredictor,
                                         StaticDirectionPredictor)

    return BranchPredictor(
        cfg.predictor,
        direction=StaticDirectionPredictor(program,
                                           hints=dict(static_hints)))


# ----------------------------------------------------------------------
# ProfileMe wiring (shared by single-context, SMT, and multiprog sessions).


def profile_config_for_context(profile, context):
    """Clone *profile* for one hardware context of a multi-context run.

    The clone stamps the Profiled Context Register with *context* and
    decorrelates the sampling intervals with a per-context seed.
    """
    return dataclasses.replace(profile, context=context,
                               seed=profile.seed + 1000 * context)


@dataclass
class ProfileStack:
    """The standard software stack over ProfileMe samples.

    ``unit`` is None for a stack built by :func:`profile_sinks` alone
    (two-speed sessions arm one unit per detailed window).
    """

    unit: Optional[ProfileMeUnit]
    driver: ProfileMeDriver
    database: ProfileDatabase
    pair_analyzer: Optional[PairAnalyzer]
    push_sink: Any = None  # ServiceSink when samples stream to a service


def profile_sinks(profile, issue_width, keep_records=True, keep_addresses=0,
                  with_pairs=True, rollup_interval=0, retain_buckets=0,
                  push_to=None):
    """Build the driver plus database/pair-analyzer/push sinks.

    *with_pairs* controls whether a :class:`PairAnalyzer` sink is wired
    when the configuration samples groups (the multiprogrammed session
    keeps per-context databases only).  *rollup_interval* /
    *retain_buckets* configure the database's time-bucketed rollup
    plane: samples fold into per-interval buckets that age into coarser
    epochs, with the oldest evicted past the retention cap.  *push_to*
    ("host:port") also streams every sample to a profiling service.
    """
    driver = ProfileMeDriver(keep_records=keep_records)
    database = driver.add_sink(ProfileDatabase(
        keep_addresses=keep_addresses, rollup_interval=rollup_interval,
        retain_buckets=retain_buckets))
    pair_analyzer = None
    if with_pairs and profile.effective_group_size >= 2:
        pair_analyzer = driver.add_sink(PairAnalyzer(
            mean_interval=profile.mean_interval,
            pair_window=profile.pair_window,
            issue_width=issue_width))
    push_sink = None
    if push_to:
        # Imported lazily: most sessions never touch the service.
        from repro.service.client import ProfileClient, ServiceSink

        push_sink = driver.add_sink(ServiceSink(ProfileClient(push_to)))
    return ProfileStack(unit=None, driver=driver, database=database,
                        pair_analyzer=pair_analyzer, push_sink=push_sink)


def attach_profileme(core, profile, **options):
    """Attach a ProfileMe unit to *core* over a :func:`profile_sinks`
    stack built with *options*."""
    stack = profile_sinks(profile, core.config.issue_width, **options)
    stack.unit = core.add_probe(
        ProfileMeUnit(profile, handler=stack.driver.handle_interrupt))
    return stack


# ----------------------------------------------------------------------
# Session description.


def canonical_value(value):
    """Reduce *value* to plain JSON-safe data with a stable meaning.

    Used by :meth:`SessionSpec.canonical` (and hence the sweep layer's
    content-addressed result cache): two values that would drive a
    simulation identically must reduce to equal structures, regardless
    of dict insertion order or container flavour (tuple vs list).

    Programs reduce to their *text* — name, entry, disassembly, labels,
    function extents, and initial memory — so a rebuilt-but-identical
    program hashes the same as the original object.
    """
    from repro.isa.program import Program

    if isinstance(value, Program):
        return {
            "name": value.name,
            "entry": value.entry,
            "text": [inst.disassemble() for inst in value.instructions],
            "labels": {name: addr for name, addr in value.labels.items()},
            "functions": {name: list(extent)
                          for name, extent in value.functions.items()},
            "initial_memory": {str(addr): word for addr, word
                               in value.initial_memory.items()},
        }
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical_value(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): canonical_value(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError("cannot canonicalize %r (type %s) for hashing"
                      % (value, type(value).__name__))


@dataclass
class SessionSpec:
    """Everything needed to reproduce one simulation session.

    Exactly one of *program* (single-context kinds) or *programs*
    (``smt`` / ``multiprog``) is given.  All contained configs are plain
    frozen dataclasses, so a spec round-trips through pickle and its
    seeds make re-running it deterministic.
    """

    program: Any = None
    programs: Tuple[Any, ...] = ()
    core_kind: str = "ooo"
    config: Any = None  # MachineConfig
    profile: Optional[ProfileMeConfig] = None
    counter: Any = None  # CounterConfig
    uninterruptible: Optional[Sequence] = None
    collect_truth: bool = False
    truth_options: Optional[Dict] = None
    keep_addresses: int = 0
    keep_records: bool = True
    max_cycles: Optional[int] = None
    max_retired: Optional[int] = None
    quantum: int = 200  # multiprog scheduling slice
    partition: bool = True  # smt window partitioning
    # Profile-guided static branch hints (single-context kinds only).
    # None keeps the dynamic gshare direction predictor; a tuple of
    # (pc, predicted_taken) pairs switches the fetch unit to a static
    # predictor — BTFN overridden by the hints, () meaning pure BTFN.
    # The PGO measurement protocol compares ()-baseline vs hinted runs
    # so the transformation is isolated from the predictor class.
    static_branch_hints: Optional[Tuple[Tuple[int, int], ...]] = None
    # Execution engine: "detailed" simulates every instruction cycle-level;
    # "two-speed" fast-forwards between samples and runs bounded detailed
    # windows of `window` retired instructions around each sample point
    # (repro.engine.twospeed).
    exec_mode: str = "detailed"
    window: int = 2000
    label: Optional[str] = None
    push_to: Optional[str] = None  # "host:port" profile-service address
    # Cycles between streamed probe-registry readings (0 = off).  With
    # push_to set, each reading is also shipped to the service; registry
    # reads are side-effect-free, so streaming never changes the run.
    probe_stream: int = 0
    # Continuous-ingest rollup: fold samples into time buckets of this
    # many cycles (0 = one flat store, the classic shape), rolling
    # closed buckets into exponentially coarser epochs.  retain_buckets
    # caps live buckets; past it the oldest are evicted (and counted).
    # Both change what the result's database *contains*, so they are
    # hashed — but omitted when off, preserving pre-existing spec_keys.
    rollup_interval: int = 0
    retain_buckets: int = 0

    def __post_init__(self):
        if self.core_kind not in CORE_KINDS:
            raise ConfigError("unknown core kind %r" % (self.core_kind,))
        if self.core_kind in ("smt", "multiprog"):
            if not self.programs:
                raise ConfigError("%s sessions need `programs`"
                                  % self.core_kind)
        elif self.program is None:
            raise ConfigError("single-context sessions need `program`")
        if self.exec_mode not in ("detailed", "two-speed"):
            raise ConfigError("exec_mode must be 'detailed' or 'two-speed', "
                              "got %r" % (self.exec_mode,))
        if self.static_branch_hints is not None:
            if self.core_kind in ("smt", "multiprog"):
                raise ConfigError("static_branch_hints needs a "
                                  "single-context core (the static "
                                  "predictor is built from one program)")
            if self.exec_mode == "two-speed":
                raise ConfigError("static_branch_hints is not supported "
                                  "in two-speed mode (the fast-forward "
                                  "engine owns predictor construction)")
        if self.exec_mode == "two-speed":
            if self.core_kind != "ooo":
                raise ConfigError("two-speed mode requires core_kind='ooo'")
            if self.profile is None:
                raise ConfigError("two-speed mode needs a ProfileMeConfig: "
                                  "sample scheduling drives window placement")
            if self.window < 4:
                raise ConfigError("window must be >= 4, got %d" % self.window)
            if self.counter is not None or self.collect_truth:
                raise ConfigError("two-speed mode cannot attach counters or "
                                  "ground-truth probes: they would observe "
                                  "only the detailed windows")
            if self.max_cycles is not None:
                raise ConfigError("two-speed mode has no global cycle axis; "
                                  "use max_retired")
            if self.probe_stream:
                raise ConfigError("two-speed mode cannot stream probes: "
                                  "there is no core between windows to "
                                  "read them from")
        if self.rollup_interval < 0:
            raise ConfigError("rollup_interval must be >= 0, got %r"
                              % (self.rollup_interval,))
        if self.retain_buckets < 0:
            raise ConfigError("retain_buckets must be >= 0, got %r"
                              % (self.retain_buckets,))
        if self.retain_buckets and not self.rollup_interval:
            raise ConfigError("retain_buckets requires rollup_interval")
        if self.core_kind == "multiprog":
            if self.rollup_interval:
                raise ConfigError("multiprog sessions cannot roll up: the "
                                  "merged view re-keys PCs and has no "
                                  "time axis")
            ignored = [name for name, used in (
                ("max_retired", self.max_retired is not None),
                ("collect_truth", self.collect_truth),
                ("probe_stream", bool(self.probe_stream)),
                ("counter", self.counter is not None)) if used]
            if ignored:
                raise ConfigError("multiprog sessions do not support %s: "
                                  "the scheduler runs every context to "
                                  "completion with ProfileMe only"
                                  % ", ".join(ignored))

    def sink_options(self):
        """The :func:`profile_sinks` options this spec selects."""
        return dict(keep_records=self.keep_records,
                    keep_addresses=self.keep_addresses,
                    rollup_interval=self.rollup_interval,
                    retain_buckets=self.retain_buckets,
                    push_to=self.push_to)

    def resolved_programs(self):
        return tuple(self.programs) if self.programs else (self.program,)

    def canonical(self):
        """JSON-safe dict identifying what this spec *simulates*.

        Covers program text, core kind, machine/profile/counter configs,
        limits, and seeds — every field that can change a result.
        ``label`` is presentation-only and ``push_to`` is transport-only
        (where samples are additionally streamed, never what is
        simulated); both are deliberately excluded, so a relabelled or
        service-attached spec still hits the sweep layer's result cache.
        Dicts reduce order-independently (hashing serializes with sorted
        keys), so two specs built in different field orders are equal
        here iff they would simulate identically.

        Backward compatibility: the two-speed fields (``exec_mode``,
        ``window``) are omitted entirely in detailed mode, so every spec
        written before they existed keeps its pre-existing ``spec_key``
        and old sweep checkpoint caches stay valid.  ``window`` only
        affects two-speed runs, so omitting it for detailed specs is
        lossless.  ``static_branch_hints`` is likewise omitted when
        ``None`` (the dynamic-predictor default) for the same reason;
        hinted specs do change what is simulated, so a non-``None``
        value is hashed.
        """
        data = {}
        for spec_field in dataclasses.fields(self):
            # probe_stream is observation-only: registry reads are
            # side-effect-free, so a streamed run simulates identically
            # to an unstreamed one and must hit the same cache entry.
            if spec_field.name in ("label", "push_to", "probe_stream"):
                continue
            if (spec_field.name in ("exec_mode", "window")
                    and self.exec_mode == "detailed"):
                continue
            if (spec_field.name == "static_branch_hints"
                    and self.static_branch_hints is None):
                continue
            # Rollup changes the shape of the collected database, so it
            # is hashed when on — omitted when off so every flat-store
            # spec keeps the spec_key it had before the fields existed.
            if (spec_field.name in ("rollup_interval", "retain_buckets")
                    and not self.rollup_interval):
                continue
            data[spec_field.name] = canonical_value(
                getattr(self, spec_field.name))
        return data


@dataclass
class CoreStats:
    """Summary statistics surviving :meth:`SessionResult.detach`."""

    cycles: int
    retired: int
    fetched: int
    aborted: int
    mispredicts: int
    ipc: float

    @classmethod
    def from_core(cls, core, cycles):
        return cls(cycles=cycles,
                   retired=core.retired,
                   fetched=getattr(core, "fetched", 0),
                   aborted=getattr(core, "aborted", 0),
                   mispredicts=getattr(core, "mispredicts", 0),
                   ipc=core.ipc)


@dataclass
class SessionResult:
    """Everything one session produced."""

    spec: SessionSpec
    core: Any
    cycles: int
    stats: CoreStats
    unit: Optional[ProfileMeUnit] = None
    driver: Optional[ProfileMeDriver] = None
    database: Optional[ProfileDatabase] = None
    pair_analyzer: Optional[PairAnalyzer] = None
    truth: Optional[GroundTruthCollector] = None
    counter: Optional[EventCounter] = None
    multi: Any = None  # MultiProgramSession for core_kind="multiprog"
    sampling_stats: Any = None  # ProfileMeStats, populated by detach()
    two_speed: Any = None  # TwoSpeedStats for exec_mode="two-speed"
    # Final probe-registry snapshot: {name: {value, kind, unit,
    # description}}.  Plain data — survives detach() and persistence.
    probes: Optional[Dict] = None

    @property
    def label(self):
        return self.spec.label

    @property
    def records(self):
        return self.driver.records if self.driver else []

    @property
    def pairs(self):
        return self.driver.pairs if self.driver else []

    def detach(self):
        """Drop the simulator objects, keeping the measured outputs.

        After detaching, the result is cheap to pickle: the sweep
        runner calls this in the worker so only profiles, samples, and
        summary statistics cross the process boundary.
        """
        if self.unit is not None:
            self.sampling_stats = self.unit.stats
        self.core = None
        self.unit = None
        self.multi = None
        return self


# ----------------------------------------------------------------------
# Execution.


def run_session(spec):
    """Run *spec* to completion and return a :class:`SessionResult`."""
    if spec.exec_mode == "two-speed":
        # Imported lazily: the two-speed engine pulls in the OOO core.
        from repro.engine.twospeed import run_two_speed

        return run_two_speed(spec)
    if spec.core_kind == "multiprog":
        return _run_multiprog(spec)
    if spec.core_kind == "smt":
        from repro.cpu.smt import SmtCore

        core = SmtCore(list(spec.programs), config=spec.config,
                       partition=spec.partition)
    else:
        core = build_core(spec.program, core_kind=spec.core_kind,
                          config=spec.config,
                          static_hints=spec.static_branch_hints)

    stack = None
    if spec.profile is not None:
        stack = attach_profileme(core, spec.profile, **spec.sink_options())
    counter = None
    if spec.counter is not None:
        counter = EventCounter(spec.counter,
                               uninterruptible=spec.uninterruptible)
        core.add_probe(counter)
    truth = None
    if spec.collect_truth:
        truth = GroundTruthCollector(**(spec.truth_options or {}))
        core.add_probe(truth)

    # The introspection plane: one registry spanning the core and every
    # attached observer.  Built after all observers attach so their
    # subtrees (profileme.*, counters.*) are enumerable too.
    registry = core.probe_registry()
    if stack is not None:
        stack.unit.register_probes(registry)
    if counter is not None:
        counter.register_probes(registry)
    streamer = None
    probe_client = None
    if spec.probe_stream:
        from repro.probes.stream import ProbeStreamer

        sink = None
        if spec.push_to:
            from repro.service.client import ProfileClient

            probe_client = ProfileClient(spec.push_to)

            def sink(cycle, readings):
                probe_client.push_probes(readings, cycle)
        streamer = core.add_probe(
            ProbeStreamer(period=spec.probe_stream, sink=sink))

    if spec.core_kind == "smt":
        cycles = core.run(max_cycles=spec.max_cycles or 200_000,
                          max_retired=spec.max_retired)
    else:
        cycles = core.run(max_cycles=spec.max_cycles,
                          max_retired=spec.max_retired)
    if stack is not None:
        stack.unit.finalize()
        if stack.push_sink is not None:
            stack.push_sink.close()
    if streamer is not None:
        streamer.sample(core.cycle)  # final flush at the end cycle
    if probe_client is not None:
        probe_client.close()

    return SessionResult(
        spec=spec, core=core, cycles=cycles,
        stats=CoreStats.from_core(core, cycles),
        unit=stack.unit if stack else None,
        driver=stack.driver if stack else None,
        database=stack.database if stack else None,
        pair_analyzer=stack.pair_analyzer if stack else None,
        truth=truth, counter=counter,
        probes=registry.snapshot(refresh=True))


def _run_multiprog(spec):
    from repro.multiprog import MultiProgramSession

    session = MultiProgramSession(list(spec.programs),
                                  quantum=spec.quantum,
                                  config=spec.config,
                                  profile=spec.profile,
                                  keep_records=spec.keep_records,
                                  keep_addresses=spec.keep_addresses)
    cycles = session.run(max_total_cycles=spec.max_cycles or 5_000_000)
    database = session.merged_database() if spec.profile is not None else None
    if spec.push_to and database is not None:
        # Multiprog keeps per-context databases; ship the merged
        # aggregate as one document rather than replaying raw records.
        from repro.service.client import ProfileClient

        with ProfileClient(spec.push_to) as client:
            client.push_database(database.to_dict())
    # Aggregate stats across contexts.
    cores = [ctx.core for ctx in session.contexts]
    stats = CoreStats(
        cycles=cycles,
        retired=sum(c.retired for c in cores),
        fetched=sum(c.fetched for c in cores),
        aborted=sum(c.aborted for c in cores),
        mispredicts=sum(c.mispredicts for c in cores),
        ipc=(sum(c.retired for c in cores) / cycles) if cycles else 0.0)
    return SessionResult(spec=spec, core=None, cycles=cycles, stats=stats,
                         database=database, multi=session)
