"""The ProfileMe hardware unit (sections 4.1-4.3).

``ProfileMeUnit`` is a :class:`~repro.cpu.probes.Probe` that attaches to a
core and implements the complete sampling pipeline in hardware terms:

1. a software-written :class:`FetchedInstructionCounter` selects a fetch
   slot at a random interval (major interval);
2. the selected instruction is *tagged* (DynInst.profile_tag) and its
   execution is latched into a Profile Register set;
3. for paired / N-way sampling (section 4.1.2: "for paired sampling or,
   in general, N-way sampling, ceil(log(N+1)) bits are needed"), further
   members are selected at successive minor intervals (uniform in
   [1, W]), each latched into its own register set along with its fetch
   offset from the first member;
4. when every instruction of a sample group has retired or aborted —
   including the delayed data of loads that retire before their fill
   (section 4.1.4 requires the interrupt to wait for all signals) — the
   record is pushed into a small on-chip buffer; when the buffer holds
   ``buffer_depth`` samples an interrupt is raised: the registered
   handler (profiling software) receives the records and fetch is stalled
   for ``interrupt_cost_cycles`` to model handler overhead (section 4.3).

Replicated register sets (section 4.3): with ``register_sets > 1``,
several sample groups may be in flight concurrently, which removes the
selection drops that otherwise thin aggressive sampling rates.

Unbiased intervals: the major counter free-runs — it keeps counting while
sample groups are in flight, and a selection that lands when no register
set is free (or while another group is still choosing its members) is
*dropped* (counted in ``stats.dropped_busy``) rather than deferred.
Re-arming only after the previous sample completes would silently stretch
every interval by the sample's flight time and bias the ``k * S``
estimator low; with free-running intervals the expected spacing is
exactly the configured S.

The unit observes *only* what the paper's hardware can observe: fetch
slots, retirement, and aborts.  It never peeks at simulator internals.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from repro.cpu.probes import Probe, SLOT_EMPTY, SLOT_INST, SLOT_OFFPATH
from repro.engine.bus import COUNTDOWN_IDLE
from repro.errors import ConfigError
from repro.events import AbortReason, Event
from repro.profileme.fetch_counter import CountMode, FetchedInstructionCounter
from repro.probes.props import ratio
from repro.profileme.registers import (GroupRecord, PairedRecord,
                                       ProfileRecord, capture_record,
                                       register_record_probes)
from repro.utils.rng import SamplingRng


@dataclass(frozen=True)
class ProfileMeConfig:
    """Sampling parameters (the software-visible control registers)."""

    mean_interval: int = 1000  # S: mean fetched instructions between samples
    jitter: float = 0.5  # interval randomization halfwidth (uniform mode)
    distribution: str = "uniform"  # "uniform" or "geometric" intervals
    mode: CountMode = CountMode.INSTRUCTIONS
    paired: bool = False  # shorthand for group_size=2
    group_size: int = 0  # 0 = derive from `paired`; >= 1 explicit N-way
    pair_window: int = 96  # W: conservative bound on in-flight instructions
    register_sets: int = 1  # concurrent sample groups (section 4.3)
    path_bits: int = 16  # width of the Profiled Path Register
    buffer_depth: int = 1  # samples buffered per interrupt (section 4.3)
    interrupt_cost_cycles: int = 0  # fetch-stall cost per interrupt
    # Profiled Context Register value.  None (default) records each
    # instruction's own hardware context — the right behaviour when one
    # unit samples an SMT machine's merged fetch stream.  A fixed value
    # overrides it (used by per-context units in repro.multiprog).
    context: Optional[int] = None
    seed: int = 1

    def __post_init__(self):
        if self.mean_interval < 1:
            raise ConfigError("mean_interval must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.pair_window < 1:
            raise ConfigError("pair_window must be >= 1")
        if self.buffer_depth < 1:
            raise ConfigError("buffer_depth must be >= 1")
        if self.path_bits < 1 or self.path_bits > 30:
            raise ConfigError("path_bits must be in [1, 30]")
        if self.distribution not in ("uniform", "geometric"):
            raise ConfigError("distribution must be 'uniform' or "
                              "'geometric', got %r" % (self.distribution,))
        if self.group_size < 0 or self.group_size > 8:
            raise ConfigError("group_size must be in [0, 8]")
        if self.paired and self.group_size not in (0, 2):
            raise ConfigError("paired=True conflicts with group_size=%d"
                              % self.group_size)
        if self.register_sets < 1 or self.register_sets > 16:
            raise ConfigError("register_sets must be in [1, 16]")

    @property
    def effective_group_size(self):
        """Members per sample group: N-way size, or 2 when paired."""
        if self.group_size:
            return self.group_size
        return 2 if self.paired else 1

    @property
    def tag_bits(self):
        """Hardware cost of the ProfileMe tag (section 4.1.2)."""
        distinct = self.effective_group_size * self.register_sets
        return max(1, math.ceil(math.log2(distinct + 1)))


@dataclass
class ProfileMeStats:
    """Hardware-level accounting (useful-sample yield, interrupt costs)."""

    selections: int = 0  # major-counter expirations
    dropped_busy: int = 0  # major expirations lost to busy registers
    member_selections: int = 0  # group members chosen (major + minor)
    tagged: int = 0  # members landing on a pipeline instruction
    offpath_selections: int = 0  # members on in-block, off-path slots
    empty_selections: int = 0  # members with no instruction at all
    records_delivered: int = 0
    interrupts: int = 0
    overhead_cycles: int = 0
    max_concurrent_groups: int = 0

    @property
    def useful_fraction(self):
        """Fraction of member selections that tagged an instruction."""
        return ratio(self.tagged, self.member_selections)

    def merge(self, other):
        """Fold *other* in: counts add, the concurrency peak takes the max."""
        for field in dataclasses.fields(self):
            name = field.name
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(self, name, (max(mine, theirs)
                                 if name == "max_concurrent_groups"
                                 else mine + theirs))


def draw_interval(config, rng):
    """The next major interval software writes into the counter (4.1.1).

    Draws from *rng* by ``config.distribution`` around
    ``config.mean_interval``; the result is at least 1, since a zero
    write would never count down to a selection.
    """
    if config.distribution == "geometric":
        interval = rng.geometric_interval(config.mean_interval)
    else:
        interval = rng.interval(config.mean_interval, config.jitter)
    return interval if interval >= 1 else 1


class _SampleGroup:
    """One in-flight sample: up to N selections and their records."""

    __slots__ = ("size", "records", "fetch_cycles", "distances",
                 "selections", "expected")

    def __init__(self, size):
        self.size = size
        self.records = {}  # selection ordinal -> ProfileRecord
        self.fetch_cycles = {}  # ordinal -> selection cycle
        self.distances = []  # minor intervals programmed between members
        self.selections = 0
        self.expected = 0  # tagged members still in flight

    @property
    def selecting(self):
        """Still choosing members (owns the minor counter)."""
        return self.selections < self.size

    @property
    def done(self):
        return not self.selecting and self.expected == 0


class ProfileMeUnit(Probe):
    """Instruction-sampling hardware attached to a core."""

    def __init__(self, config=None, handler=None, auto_rearm=True):
        self.config = config or ProfileMeConfig()
        self.handler = handler  # callable(list_of_records)
        # auto_rearm=False makes the major counter one-shot: it fires at
        # the armed count and stays disarmed until software writes it
        # again (arm_major_at).  The two-speed scheduler uses this — it
        # draws the inter-sample intervals itself and arms the counter
        # only for the distance into each detailed window.
        self.auto_rearm = auto_rearm
        self.rng = SamplingRng(self.config.seed)
        self.major = FetchedInstructionCounter(self.config.mode)
        self.minor = FetchedInstructionCounter(self.config.mode)
        self.stats = ProfileMeStats()
        self.buffer = []
        self.core = None
        # The core's bus while this unit owns its fetch countdown, and
        # the countdown value last written to it (see engine.bus).
        self._bus = None
        self._countdown = COUNTDOWN_IDLE

        self.last_record = None  # most recently latched ProfileRecord
        self._groups = []  # in-flight groups, oldest first
        self._selecting_group = None  # the group owning the minor counter
        self._pending = {}  # id(dyninst) -> (group, ordinal)
        self._next_tag = 0
        # Retired loads whose fill is still in flight: section 4.1.4 says
        # the interrupt "must be delayed until all the appropriate signals
        # have had time to reach the Profile Registers", so capture waits
        # for the Load-issue->Completion latency register to latch.
        self._awaiting_fill = []  # (dyninst, group, ordinal)

    # ------------------------------------------------------------------

    def attach(self, core):
        self.core = core
        bus = core.bus
        # Only tagged instructions can complete a sample, and
        # on_cycle_end matters only while a fill is awaited.
        bus.deliver_tagged_only(self)
        bus.unsubscribe_callback(self, "on_cycle_end")
        if bus.count_fetch_slots(
                self, self.config.mode is CountMode.INSTRUCTIONS):
            self._bus = bus
        if self.auto_rearm:
            self._arm_major()
        self._write_countdown()

    def arm_major_at(self, value):
        """Software write of the fetched-instruction counter (section 4.1).

        Arms the major counter to fire after *value* counted slots;
        with ``auto_rearm=False`` this is the only way it ever arms.
        """
        self._catch_up()
        self.major.write(value)
        self._write_countdown()

    def _catch_up(self):
        """Count down the slots the core counted without publishing."""
        if self._bus is None:
            return
        elapsed = self._countdown - self._bus.fetch_countdown
        if elapsed:
            self.major.advance(elapsed)
            self.minor.advance(elapsed)

    def _write_countdown(self):
        """Tell the core how many counted slots can pass unobserved.

        Runs after every counter write: attach, arm_major_at, finalize
        and the end of on_fetch_slots (where _arm_major/_arm_minor run).
        """
        if self._bus is None:
            return
        countdown = min((counter.remaining
                         for counter in (self.major, self.minor)
                         if counter.remaining is not None),
                        default=COUNTDOWN_IDLE)
        self._countdown = self._bus.fetch_countdown = countdown

    def _arm_major(self):
        self.major.write(draw_interval(self.config, self.rng))

    def _arm_minor(self, group):
        distance = self.rng.pair_distance(self.config.pair_window)
        group.distances.append(distance)
        self.minor.write(distance)
        self._selecting_group = group

    # ------------------------------------------------------------------
    # Fetch-side selection.

    def on_fetch_slots(self, cycle, slots):
        self._catch_up()
        major, minor = self.major, self.minor
        # Both counters count in the configured mode.
        for slot in major.counted(slots):
            if minor.advance(1):
                self._select_member(self._selecting_group, slot, cycle)
            if major.advance(1):
                self.stats.selections += 1
                if (len(self._groups) >= self.config.register_sets
                        or self._selecting_group is not None):
                    # No free register set (or the minor counter is busy
                    # choosing another group's members): the selection is
                    # dropped so the next interval starts on schedule.
                    self.stats.dropped_busy += 1
                else:
                    self._start_group(slot, cycle)
                if self.auto_rearm:
                    self._arm_major()
        self._write_countdown()

    def _start_group(self, slot, cycle):
        group = _SampleGroup(self.config.effective_group_size)
        self._groups.append(group)
        self.stats.max_concurrent_groups = max(
            self.stats.max_concurrent_groups, len(self._groups))
        self._select_member(group, slot, cycle)
        if slot.kind == SLOT_EMPTY and group.size == 1:
            # Nothing in flight: the attempt is wasted immediately.
            self._groups.remove(group)
            return
        if slot.kind == SLOT_EMPTY and group.selections == 1:
            # An empty *first* selection abandons the whole group: there
            # is no anchor instruction to pair against.
            self._groups.remove(group)
            return
        self._continue_or_settle(group)

    def _select_member(self, group, slot, cycle):
        ordinal = group.selections
        group.selections += 1
        group.fetch_cycles[ordinal] = cycle
        self.stats.member_selections += 1
        if slot.kind == SLOT_INST:
            dyninst = slot.dyninst
            dyninst.profile_tag = self._next_tag
            self._next_tag = (self._next_tag + 1) % (
                1 << self.config.tag_bits)
            self._pending[id(dyninst)] = (group, ordinal)
            group.expected += 1
            self.stats.tagged += 1
        elif slot.kind == SLOT_OFFPATH:
            # The instruction is in the fetch block but off the predicted
            # path: the decoder discards it.  ProfileMe still produces a
            # record showing the immediate abort.
            self.stats.offpath_selections += 1
            group.records[ordinal] = self._offpath_record(slot.pc, cycle)
        else:
            assert slot.kind == SLOT_EMPTY
            self.stats.empty_selections += 1
        if group is self._selecting_group:
            self._selecting_group = None
            self.minor.disarm()
            self._continue_or_settle(group)

    def _continue_or_settle(self, group):
        if group.selecting:
            self._arm_minor(group)
        elif group.done:
            self._complete_group(group)

    def _offpath_record(self, pc, cycle):
        return ProfileRecord(
            context=self.config.context or 0,
            pc=pc,
            op=None,
            addr=None,
            events=Event.ABORTED | Event.BAD_PATH,
            abort_reason=AbortReason.FETCH_DISCARD,
            history=0,
            fetch_to_map=None,
            map_to_data_ready=None,
            data_ready_to_issue=None,
            issue_to_retire_ready=None,
            retire_ready_to_retire=None,
            load_issue_to_completion=None,
            fetch_cycle=cycle,
            done_cycle=cycle,
        )

    # ------------------------------------------------------------------
    # Completion side.

    def on_retire(self, dyninst, cycle):
        self._maybe_capture(dyninst, cycle)

    def on_abort(self, dyninst, cycle):
        self._maybe_capture(dyninst, cycle)

    def _maybe_capture(self, dyninst, cycle):
        entry = self._pending.pop(id(dyninst), None)
        if entry is None:
            return
        group, ordinal = entry
        dyninst.profile_tag = None
        if (dyninst.retired and dyninst.inst.is_load
                and dyninst.load_complete_cycle is None):
            # The load retired ahead of its data; hold the register set
            # until the fill latches Load-issue->Completion.
            if not self._awaiting_fill:
                self.core.bus.subscribe_callback(self, "on_cycle_end")
            self._awaiting_fill.append((dyninst, group, ordinal))
            return
        self._latch(dyninst, group, ordinal, cycle)

    def _latch(self, dyninst, group, ordinal, cycle):
        record = capture_record(
            dyninst, self.config.path_bits, cycle,
            context=self.config.context)
        group.records[ordinal] = record
        self.last_record = record
        group.expected -= 1
        if group.done:
            self._complete_group(group)

    def on_cycle_end(self, cycle):
        still_waiting = []
        for dyninst, group, ordinal in self._awaiting_fill:
            if dyninst.load_complete_cycle is not None:
                self._latch(dyninst, group, ordinal, cycle)
            else:
                still_waiting.append((dyninst, group, ordinal))
        self._awaiting_fill = still_waiting
        if not still_waiting:
            self.core.bus.unsubscribe_callback(self, "on_cycle_end")

    # ------------------------------------------------------------------
    # Delivery.

    def _complete_group(self, group):
        if group in self._groups:
            self._groups.remove(group)
        sample = self._assemble(group)
        if sample is not None:
            self._buffer_sample(sample)

    def _assemble(self, group):
        first = group.records.get(0)
        if group.size == 1:
            return first
        if first is None:
            return None
        if group.size == 2:
            second = group.records.get(1)
            intra = None
            if 1 in group.fetch_cycles:
                intra = group.fetch_cycles[1] - group.fetch_cycles[0]
            return PairedRecord(
                first=first, second=second, intra_pair_cycles=intra,
                intra_pair_distance=(group.distances[0]
                                     if group.distances else None))
        base = group.fetch_cycles[0]
        records = tuple(group.records.get(i) for i in range(group.size))
        offsets = tuple(
            (group.fetch_cycles[i] - base
             if i in group.fetch_cycles and group.records.get(i) is not None
             else None)
            for i in range(group.size))
        return GroupRecord(records=records, fetch_offsets=offsets,
                           distances=tuple(group.distances))

    def _buffer_sample(self, sample):
        self.buffer.append(sample)
        self.stats.records_delivered += 1
        if len(self.buffer) >= self.config.buffer_depth:
            self._raise_interrupt()

    def _raise_interrupt(self):
        if not self.buffer:
            return
        self.stats.interrupts += 1
        if self.config.interrupt_cost_cycles and self.core is not None:
            self.core.request_fetch_stall(self.config.interrupt_cost_cycles)
            self.stats.overhead_cycles += self.config.interrupt_cost_cycles
        delivered = list(self.buffer)
        self.buffer.clear()
        if self.handler is not None:
            self.handler(delivered)

    # ------------------------------------------------------------------
    # Introspection.

    def register_probes(self, registry, prefix="profileme"):
        """Expose the unit's accounting and Profile Registers.

        ``profileme.stats.*`` mirrors every :class:`ProfileMeStats`
        field (counters, plus ``max_concurrent_groups`` as a gauge since
        it is a peak) and the derived useful fraction; ``profileme.*``
        gauges report the live hardware state (buffer depth, in-flight
        groups); ``profileme.registers.*`` reads the most recently
        latched Profile Register set field by field.
        """
        stats = self.stats
        for stats_field in dataclasses.fields(ProfileMeStats):
            name = stats_field.name
            peak = name == "max_concurrent_groups"
            registry.register(
                "%s.stats.%s" % (prefix, name),
                lambda f=name: getattr(stats, f),
                kind="gauge" if peak else "counter",
                unit="groups" if peak else "events",
                description="ProfileMeStats.%s" % name)
        registry.register(prefix + ".stats.useful_fraction",
                          lambda: stats.useful_fraction,
                          kind="fraction", unit="ratio",
                          description="tagged / member selections")
        registry.register(prefix + ".buffer.depth",
                          lambda: len(self.buffer),
                          kind="gauge", unit="samples",
                          description="samples buffered toward the next "
                                      "interrupt")
        registry.register(prefix + ".groups.in_flight",
                          lambda: len(self._groups),
                          kind="gauge", unit="groups",
                          description="sample groups currently in flight")
        register_record_probes(registry, lambda: self.last_record,
                               prefix=prefix + ".registers")

    def finalize(self):
        """Flush at end of simulation: deliver partial groups and buffer.

        On real hardware the workload never "ends"; in the simulator we
        surface whatever the hardware was holding so short runs lose no
        data.  Groups still counting minor intervals are delivered with
        the missing members as None; a load fill never observed leaves
        Load-issue->Completion unlatched.
        """
        for dyninst, group, ordinal in self._awaiting_fill:
            self._latch(dyninst, group, ordinal, dyninst.retire_cycle)
        if self._awaiting_fill:
            self._awaiting_fill = []
            self.core.bus.unsubscribe_callback(self, "on_cycle_end")
        self._catch_up()
        self._selecting_group = None
        self.minor.disarm()
        self._write_countdown()
        for group in list(self._groups):
            if group.expected == 0:
                group.selections = group.size  # stop selecting
                self._complete_group(group)
        self._raise_interrupt()
