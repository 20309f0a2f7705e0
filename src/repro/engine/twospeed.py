"""Two-speed execution: functional fast-forward + detailed OOO windows.

ProfileMe samples are sparse (random intervals of thousands of fetches),
yet the detailed simulator pays full cycle-level cost for every
instruction between samples.  This engine pays it only where samples
land: the reference interpreter fast-forwards architecturally between
sample points while keeping the shared :class:`~repro.cpu.warm.WarmState`
(caches, TLBs, branch predictor, global history) warm, then hands the
architectural state to a fresh cycle-level
:class:`~repro.cpu.ooo.core.OutOfOrderCore` for a bounded *window* of
``spec.window`` retired instructions around each sample.  The window's
leading ``window // 4`` instructions are pipeline warm-up; the ProfileMe
unit is armed (one-shot) so the sample fires after that warm-up, with
full latency registers and paired-sample overlap captured by the real
hardware model.  When the window completes, the core's committed state
flows back into the interpreter and the engine warps to the next sample
point drawn from the same interval distribution the hardware unit would
have used.

Two documented approximations (see docs/architecture.md):

* inter-sample intervals are counted in *retired* instructions during
  fast-forward but in the configured fetch domain (fetched instructions
  or fetch opportunities) inside windows — the skip distance treats the
  two as equal;
* each window's first instructions run on a warm memory system and
  predictor but an empty pipeline, so latency effects that need more
  than the warm-up prefix to rebuild (a ROB full of in-flight misses at
  the sample point) are under-represented.

Sample points that would land inside an already-simulated window are
skipped and accounted as ``dropped_busy`` — the same free-running-counter
bias rule the hardware unit applies to selections landing on busy
register sets.
"""

import dataclasses

from repro.analysis.concurrency import PairAnalyzer
from repro.analysis.database import ProfileDatabase
from repro.branch.predictors import BranchPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.tracecache import BlockCache
from repro.cpu.warm import WarmState, fast_forward
from repro.isa.interpreter import Interpreter
from repro.mem.hierarchy import MemoryHierarchy
from repro.profileme.driver import ProfileMeDriver
from repro.profileme.registers import GroupRecord, PairedRecord
from repro.profileme.unit import ProfileMeStats, ProfileMeUnit
from repro.utils.rng import SamplingRng

# Fraction of each window spent rebuilding pipeline state before the
# sample fires: warmup = window // WARMUP_DIVISOR.
WARMUP_DIVISOR = 4


@dataclasses.dataclass
class TwoSpeedStats:
    """Accounting for one two-speed run.

    ``detailed_cycles`` is the only time axis that exists: fast-forward
    has no clock, so ``SessionResult.cycles`` (and record timestamps)
    count detailed-window cycles only, concatenated across windows.
    """

    windows: int = 0
    warmup: int = 0
    fast_forwarded: int = 0  # instructions retired by the interpreter
    detailed_retired: int = 0  # instructions retired inside windows
    detailed_cycles: int = 0
    skipped_samples: int = 0  # sample points inside already-run windows
    final_state: object = None  # ArchSnapshot at the end of the run

    @property
    def detailed_fraction(self):
        total = self.fast_forwarded + self.detailed_retired
        return self.detailed_retired / total if total else 0.0


def _rebase(sample, base):
    """Shift a delivered sample's timestamps onto the global cycle axis."""
    if base == 0:
        return sample
    if isinstance(sample, PairedRecord):
        return dataclasses.replace(
            sample,
            first=_rebase(sample.first, base),
            second=(_rebase(sample.second, base)
                    if sample.second is not None else None))
    if isinstance(sample, GroupRecord):
        return dataclasses.replace(
            sample,
            records=tuple(_rebase(record, base)
                          if record is not None else None
                          for record in sample.records))
    return dataclasses.replace(sample,
                               fetch_cycle=sample.fetch_cycle + base,
                               done_cycle=sample.done_cycle + base)


def _merge_unit_stats(total, window_stats):
    total.selections += window_stats.selections
    total.dropped_busy += window_stats.dropped_busy
    total.member_selections += window_stats.member_selections
    total.tagged += window_stats.tagged
    total.offpath_selections += window_stats.offpath_selections
    total.empty_selections += window_stats.empty_selections
    total.records_delivered += window_stats.records_delivered
    total.interrupts += window_stats.interrupts
    total.overhead_cycles += window_stats.overhead_cycles
    total.max_concurrent_groups = max(total.max_concurrent_groups,
                                      window_stats.max_concurrent_groups)


def run_two_speed(spec):
    """Run *spec* in two-speed mode; returns a ``SessionResult``.

    Validation (ooo core, profile present, no counter/truth) happens in
    ``SessionSpec.__post_init__``; this function assumes a valid spec.
    """
    # Imported here, not at module level: session.py imports this module
    # inside run_session, and the result types live there.
    from repro.engine.session import CoreStats, SessionResult

    profile = spec.profile
    program = spec.program
    machine_config = spec.config or MachineConfig.alpha21264_like()
    window = spec.window
    warmup = max(1, window // WARMUP_DIVISOR)

    warm = WarmState(
        hierarchy=MemoryHierarchy(machine_config.memory),
        predictor=BranchPredictor(machine_config.predictor))
    interp = Interpreter(program)
    # Decoded-block trace cache: the fast-forward between windows is the
    # wall-clock bulk of a two-speed run; fused blocks cut it ~5-10x.
    cache = BlockCache(program)

    driver = ProfileMeDriver(keep_records=spec.keep_records)
    database = driver.add_sink(
        ProfileDatabase(keep_addresses=spec.keep_addresses))
    pair_analyzer = None
    if profile.effective_group_size >= 2:
        pair_analyzer = driver.add_sink(PairAnalyzer(
            mean_interval=profile.mean_interval,
            pair_window=profile.pair_window,
            issue_width=machine_config.issue_width))
    push_sink = None
    if spec.push_to:
        from repro.service.client import ProfileClient, ServiceSink

        push_sink = driver.add_sink(ServiceSink(ProfileClient(spec.push_to)))

    cycle_base = [0]  # mutable: the per-window handler closes over it

    def deliver(batch):
        base = cycle_base[0]
        driver.handle_interrupt([_rebase(sample, base) for sample in batch])

    scheduler_rng = SamplingRng(profile.seed)

    def next_interval():
        if profile.distribution == "geometric":
            return scheduler_rng.geometric_interval(profile.mean_interval)
        return scheduler_rng.interval(profile.mean_interval, profile.jitter)

    stats = TwoSpeedStats(warmup=warmup)
    unit_stats = ProfileMeStats()
    total_retired = 0
    fetched = aborted = mispredicts = 0
    max_retired = spec.max_retired
    state = interp.state

    countdown = next_interval()
    while not state.halted:
        if max_retired is not None and total_retired >= max_retired:
            break
        lead = countdown if countdown < warmup else warmup
        skip = countdown - lead
        if max_retired is not None:
            skip = min(skip, max_retired - total_retired)
        if skip:
            done = fast_forward(interp, warm, skip, cache=cache)
            total_retired += done
            stats.fast_forwarded += done
            if state.halted:
                break
        if max_retired is not None and total_retired >= max_retired:
            break

        core = OutOfOrderCore(program, config=machine_config,
                              hierarchy=warm.hierarchy,
                              predictor=warm.predictor, ghr=warm.ghr)
        core.inject_state(state.regs.snapshot(), state.memory, state.pc)
        # The unit's own rng only draws minor (intra-group) intervals in
        # one-shot mode; fork a stable per-window stream so window count
        # and order never perturb the major-interval draws above.
        window_profile = dataclasses.replace(
            profile, seed=scheduler_rng.fork(("window", stats.windows)).seed)
        unit = ProfileMeUnit(window_profile, handler=deliver,
                             auto_rearm=False)
        core.add_probe(unit)
        unit.arm_major_at(lead)

        limit = window
        if max_retired is not None:
            limit = min(limit, max_retired - total_retired)
        cycles = core.run(max_retired=limit)
        unit.finalize()
        _merge_unit_stats(unit_stats, unit.stats)
        cycle_base[0] += cycles

        stats.windows += 1
        stats.detailed_retired += core.retired
        stats.detailed_cycles += cycles
        total_retired += core.retired
        fetched += core.fetched
        aborted += core.aborted
        mispredicts += core.mispredicts

        # Hand the committed architectural state back to the interpreter.
        state.regs.load(core.architectural_registers())
        state.pc = core.committed_pc
        state.halted = core.halted
        interp.retired += core.retired
        warm.note_redirect()
        if core.halted:
            break

        # Next sample point, measured from the window's sample anchor.
        countdown = next_interval() - (core.retired - lead)
        while countdown <= 0:
            # The free-running counter would have fired inside the window
            # we already simulated; the selection is lost, not deferred.
            stats.skipped_samples += 1
            unit_stats.selections += 1
            unit_stats.dropped_busy += 1
            countdown += next_interval()

    if push_sink is not None:
        push_sink.close()

    stats.final_state = state.snapshot()
    cycles = stats.detailed_cycles
    ipc = (stats.detailed_retired / cycles) if cycles else 0.0
    core_stats = CoreStats(cycles=cycles, retired=total_retired,
                           fetched=fetched, aborted=aborted,
                           mispredicts=mispredicts, ipc=ipc)
    return SessionResult(
        spec=spec, core=None, cycles=cycles, stats=core_stats,
        unit=None, driver=driver, database=database,
        pair_analyzer=pair_analyzer, truth=None, counter=None,
        sampling_stats=unit_stats, two_speed=stats)

