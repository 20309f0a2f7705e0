"""Time-multiplexed event counters (the other section 2.2 weakness).

"There are typically many more events of interest than there are hardware
counters, making it impossible to concurrently monitor all interesting
events."  The standard workaround — rotating event selections through the
few physical counters and scaling each count by its duty cycle — assumes
event rates are stationary.  Phased programs violate that: an event
concentrated in a phase that a counter happens to miss (or double-sees)
is under- or over-estimated, and correlations between events are lost
entirely.

:class:`MultiplexedCounters` models an N-counter file rotated across K
event kinds every ``rotation_cycles`` cycles.  ProfileMe needs no such
machinery: every sample carries the complete event bit-field, so one run
estimates every event at once with correlations intact.
"""

from dataclasses import dataclass
from repro.counters.counter import (_FETCH_EVENTS, _ISSUE_EVENTS,
                                    _RETIRE_EVENTS)
from repro.cpu.probes import Probe, SLOT_INST
from repro.errors import ConfigError


@dataclass(frozen=True)
class MultiplexConfig:
    """A counter file smaller than the event list it must cover."""

    events: tuple  # CounterEvent kinds to monitor
    physical_counters: int = 2
    rotation_cycles: int = 1000

    def __post_init__(self):
        if not self.events:
            raise ConfigError("need at least one event")
        if self.physical_counters < 1:
            raise ConfigError("need at least one physical counter")
        if self.rotation_cycles < 1:
            raise ConfigError("rotation quantum must be >= 1")
        if len(set(self.events)) != len(self.events):
            raise ConfigError("duplicate events")

    @property
    def fully_covered(self):
        return self.physical_counters >= len(self.events)


class MultiplexedCounters(Probe):
    """Rotating counter file: counts only currently-scheduled events."""

    def __init__(self, config):
        self.config = config
        self.counts = {event: 0 for event in config.events}
        self.active_cycles = {event: 0 for event in config.events}
        self.total_cycles = 0
        self._slot = 0
        self._active = self._schedule(0)

    def _schedule(self, slot):
        """Which events the physical counters watch during *slot*."""
        events = self.config.events
        n = self.config.physical_counters
        if self.config.fully_covered:
            return set(events)
        start = (slot * n) % len(events)
        chosen = [events[(start + k) % len(events)] for k in range(n)]
        return set(chosen)

    # ------------------------------------------------------------------

    def _count(self, event_kind):
        if event_kind in self._active:
            self.counts[event_kind] += 1

    def on_fetch_slots(self, cycle, slots):
        for event_kind, predicate in _FETCH_EVENTS.items():
            if event_kind in self._active and event_kind in self.counts:
                for slot in slots:
                    if slot.kind == SLOT_INST and predicate(slot.dyninst):
                        self.counts[event_kind] += 1

    def on_issue(self, dyninst, cycle):
        for event_kind, predicate in _ISSUE_EVENTS.items():
            if event_kind in self.counts and predicate(dyninst):
                self._count(event_kind)

    def on_retire(self, dyninst, cycle):
        for event_kind, predicate in _RETIRE_EVENTS.items():
            if event_kind in self.counts and predicate(dyninst):
                self._count(event_kind)

    def on_cycle_end(self, cycle):
        self.total_cycles += 1
        for event_kind in self._active:
            if event_kind in self.active_cycles:
                self.active_cycles[event_kind] += 1
        slot = cycle // self.config.rotation_cycles
        if slot != self._slot:
            self._slot = slot
            self._active = self._schedule(slot)

    # ------------------------------------------------------------------

    def estimate(self, event_kind):
        """Duty-cycle-scaled estimate of the event's true total."""
        active = self.active_cycles[event_kind]
        if active == 0:
            return 0.0
        duty = active / max(1, self.total_cycles)
        return self.counts[event_kind] / duty

    def estimates(self):
        return {event: self.estimate(event) for event in self.config.events}

    def register_probes(self, registry, prefix="counters.multiplex"):
        """Expose per-event raw counts, duty cycles, and estimates."""
        registry.register(prefix + ".total_cycles",
                          lambda: self.total_cycles,
                          kind="counter", unit="cycles",
                          description="cycles the counter file has run")
        for event in self.config.events:
            base = "%s.%s" % (prefix, event.value)
            registry.register(base + ".count",
                              lambda e=event: self.counts[e],
                              kind="counter", unit="events",
                              description="raw count while scheduled")
            registry.register(base + ".active_cycles",
                              lambda e=event: self.active_cycles[e],
                              kind="counter", unit="cycles",
                              description="cycles a physical counter "
                                          "watched this event")
            registry.register(base + ".estimate",
                              lambda e=event: self.estimate(e),
                              kind="gauge", unit="events",
                              description="duty-cycle-scaled total estimate")
