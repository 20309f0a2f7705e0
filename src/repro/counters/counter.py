"""Hardware event counters with overflow interrupts: the baseline.

This models the performance-counter style of the Alpha 21164 / Pentium Pro
/ R10000 that section 2.2 critiques.  A counter counts occurrences of one
event kind; when it overflows, an interrupt is *armed*, becomes
deliverable after a pipeline-dependent ``skid`` delay, and the PC the
handler observes is the next instruction to retire at or after delivery
(optionally deferred past uninterruptible PC ranges — the paper's "blind
spots").

On the in-order core this yields a sharp peak at a fixed offset from the
event-causing instruction; on the out-of-order core, retirement burstiness
and out-of-order completion smear the delivered PCs over tens of
instructions (Figure 2).  Because the simulator knows the true causing
instruction, each delivered sample also carries ``event_pc`` ground truth
so the attribution error is directly measurable.
"""

import enum
from dataclasses import dataclass

from repro.cpu.probes import Probe, SLOT_INST
from repro.errors import ConfigError
from repro.events import Event
from repro.utils.rng import SamplingRng


class CounterEvent(enum.Enum):
    """Event kinds a counter can be programmed to count."""

    DCACHE_REF = "dcache_ref"  # load/store issued
    DCACHE_MISS = "dcache_miss"
    ICACHE_MISS = "icache_miss"
    DTB_MISS = "dtb_miss"
    BRANCH_MISPREDICT = "branch_mispredict"
    RETIRED_INST = "retired_inst"


# Where in the pipeline each event kind is observed.
_ISSUE_EVENTS = {
    CounterEvent.DCACHE_REF: lambda d: d.inst.is_memory,
    CounterEvent.DCACHE_MISS: lambda d: bool(d.events & Event.DCACHE_MISS)
    and d.inst.is_memory,
    CounterEvent.DTB_MISS: lambda d: bool(d.events & Event.DTB_MISS)
    and d.inst.is_memory,
}
_FETCH_EVENTS = {
    CounterEvent.ICACHE_MISS: lambda d: bool(d.events & Event.ICACHE_MISS),
}
_RETIRE_EVENTS = {
    CounterEvent.BRANCH_MISPREDICT:
        lambda d: bool(d.events & Event.MISPREDICT),
    CounterEvent.RETIRED_INST: lambda d: True,
}


@dataclass(frozen=True)
class CounterSample:
    """One delivered performance-counter interrupt."""

    delivered_pc: int  # what the handler sees (the "exception PC")
    delivered_cycle: int
    event_pc: int  # ground truth: the instruction that caused the event
    event_cycle: int


@dataclass(frozen=True)
class CounterConfig:
    """Programming of one event counter."""

    event: CounterEvent
    period: int  # events between overflows (mean; randomized per interval)
    jitter: float = 0.1
    skid_cycles: int = 6  # overflow -> interrupt-deliverable delay
    skid_jitter_cycles: int = 0  # uniform extra delivery latency [0, J]
    seed: int = 7

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError("counter period must be >= 1")
        if self.skid_cycles < 0:
            raise ConfigError("skid must be >= 0")
        if self.skid_jitter_cycles < 0:
            raise ConfigError("skid jitter must be >= 0")


class EventCounter(Probe):
    """One programmed counter attached to a core.

    ``uninterruptible`` is an optional list of (start_pc, end_pc) byte
    ranges; while the next-to-retire PC is inside such a range the
    interrupt stays pending — deliveries pile up on the first instruction
    after the range, reproducing section 2.2's blind spots.
    """

    def __init__(self, config, uninterruptible=None):
        self.config = config
        self.rng = SamplingRng(config.seed)
        self.samples = []
        self.events_counted = 0
        self.overflows = 0
        self.uninterruptible = list(uninterruptible or [])

        self._remaining = self.rng.interval(config.period, config.jitter)
        self._pending = None  # (deliverable_cycle, event_pc, event_cycle)

    # ------------------------------------------------------------------

    def _blocked(self, pc):
        for start, end in self.uninterruptible:
            if start <= pc < end:
                return True
        return False

    def _count(self, dyninst, cycle):
        self.events_counted += 1
        self._remaining -= 1
        if self._remaining > 0:
            return
        self.overflows += 1
        self._remaining = self.rng.interval(self.config.period,
                                            self.config.jitter)
        if self._pending is not None:
            return  # interrupt already pending: this overflow is lost
        # The 21164 delivers its counter interrupt a fixed number of
        # cycles after the event; P6-class machines recognize the PMI
        # through the local APIC with a latency that varies by several
        # cycles run to run.  skid_jitter_cycles models that variability.
        skid = self.config.skid_cycles
        if self.config.skid_jitter_cycles:
            skid += self.rng.randint(0, self.config.skid_jitter_cycles)
        self._pending = (cycle + skid, dyninst.pc, cycle)

    # ------------------------------------------------------------------
    # Introspection.

    def register_probes(self, registry, prefix="counters"):
        """Expose this counter under ``counters.<event>.*``."""
        base = "%s.%s" % (prefix, self.config.event.value)
        registry.register(base + ".events_counted",
                          lambda: self.events_counted,
                          kind="counter", unit="events",
                          description="events observed by the counter")
        registry.register(base + ".overflows",
                          lambda: self.overflows,
                          kind="counter", unit="overflows",
                          description="counter overflow interrupts armed")
        registry.register(base + ".samples",
                          lambda: len(self.samples),
                          kind="counter", unit="samples",
                          description="interrupts actually delivered")
        registry.register(base + ".pending",
                          lambda: int(self._pending is not None),
                          kind="gauge", unit="bool",
                          description="1 while an interrupt awaits delivery")

    # ------------------------------------------------------------------
    # Probe callbacks.

    def on_fetch_slots(self, cycle, slots):
        predicate = _FETCH_EVENTS.get(self.config.event)
        if predicate is None:
            return
        for slot in slots:
            if slot.kind == SLOT_INST and predicate(slot.dyninst):
                self._count(slot.dyninst, cycle)

    def on_issue(self, dyninst, cycle):
        predicate = _ISSUE_EVENTS.get(self.config.event)
        if predicate is not None and predicate(dyninst):
            self._count(dyninst, cycle)

    def on_retire(self, dyninst, cycle):
        predicate = _RETIRE_EVENTS.get(self.config.event)
        if predicate is not None and predicate(dyninst):
            self._count(dyninst, cycle)
        # Interrupt delivery: the handler's PC is the next instruction to
        # retire once the interrupt is deliverable and not blocked.
        if self._pending is None:
            return
        deliverable_cycle, event_pc, event_cycle = self._pending
        if cycle < deliverable_cycle:
            return
        if self._blocked(dyninst.pc):
            return
        self.samples.append(CounterSample(
            delivered_pc=dyninst.pc,
            delivered_cycle=cycle,
            event_pc=event_pc,
            event_cycle=event_cycle,
        ))
        self._pending = None
