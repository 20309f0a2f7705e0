"""Per-callback probe dispatch.

The cores used to fan out every event with ``for probe in self.probes:
probe.on_x(...)`` — every attached probe paid a call per event even for
callbacks it never overrode, and the fan-out loop itself ran on events
nobody observed.  ``on_fetch_slots`` and ``on_cycle_end`` fire every
cycle, so that overhead sat directly on the simulator's hottest loop.

:class:`ProbeBus` inverts the dispatch: at attach time it inspects which
callbacks the probe actually implements and builds one subscriber list
per callback.  The cores iterate the (usually short, often empty) lists
of bound methods directly; an empty list means the core can skip not
just the dispatch but the *event construction* (e.g. building fetch-slot
objects nobody will look at).  This is the subscription-over-core
structure mature simulators use for introspection (cf. the Simics probe
framework).

A probe pays only while it has something to observe.  Three narrower
subscriptions let a sampling probe (the ProfileMe unit) avoid a call per
event:

* **Fetch countdown** (:meth:`ProbeBus.count_fetch_slots`): the probe's
  ``on_fetch_slots`` acts only when a down-counter expires.  It keeps
  ``fetch_countdown`` at the number of counted slots (predicted-path
  instructions, or every fetch opportunity) that can pass without an
  expiry.  The out-of-order and in-order cores publish slots only on a
  cycle whose counted slots can reach it and otherwise subtract them
  from ``fetch_countdown``; they never do both in one cycle, so the
  probe recovers the unseen count as the difference from the value it
  last wrote.  While any other probe subscribes to ``on_fetch_slots``,
  ``fetch_every_cycle`` is set and slots are published every cycle, as
  the SMT relays always do.
* **Tagged instructions** (:meth:`ProbeBus.deliver_tagged_only`): the
  probe's ``on_retire``/``on_abort`` sit on ``tagged_retire`` /
  ``tagged_abort`` and fire only for DynInsts carrying a
  ``profile_tag``, after the untagged subscribers.
* **On-demand callbacks** (:meth:`ProbeBus.unsubscribe_callback` /
  :meth:`ProbeBus.subscribe_callback`): a probe switches one callback
  off while it has nothing to wait for — the ProfileMe unit listens to
  ``on_cycle_end`` only while a retired load's fill is outstanding.

Every change of subscription rebuilds the lists as new list objects, so
a probe may (un)subscribe from inside a dispatch loop: the loop keeps
iterating the list it started with.
"""

import sys

from repro.cpu.probes import Probe

# The complete observation interface, in pipeline order.
PROBE_CALLBACKS = ("on_fetch_slots", "on_issue", "on_retire", "on_abort",
                   "on_cycle_end")

# callback name -> ProbeBus attribute holding its subscriber list.
_LISTS = {
    "on_fetch_slots": "fetch_slots",
    "on_issue": "issue",
    "on_retire": "retire",
    "on_abort": "abort",
    "on_cycle_end": "cycle_end",
}

# Callbacks deliver_tagged_only() narrows, and the lists they move to.
_TAGGED_LISTS = {
    "on_retire": "tagged_retire",
    "on_abort": "tagged_abort",
}

# fetch_countdown while no counter is armed: never reached.
COUNTDOWN_IDLE = sys.maxsize


def probe_overrides(probe, name):
    """True if *probe* provides its own implementation of callback *name*.

    Both class-level overrides (the normal case) and instance-level
    callables are honoured; the no-op stubs on :class:`Probe` do not
    count.  Duck-typed probes that never subclass :class:`Probe` are
    supported: any callable they define is an implementation.
    """
    if name in getattr(probe, "__dict__", {}):
        return callable(getattr(probe, name))
    impl = getattr(type(probe), name, None)
    return impl is not None and impl is not getattr(Probe, name)


class ProbeBus:
    """Subscriber lists for each probe callback, built at attach time.

    The per-callback attributes (``fetch_slots``, ``issue``, ``retire``,
    ``abort``, ``cycle_end``, ``tagged_retire``, ``tagged_abort``) hold
    bound methods in attach order; cores iterate them directly on the
    hot path.  ``probes`` preserves the full attach-ordered probe list
    for introspection and compatibility.
    """

    __slots__ = ("probes", "fetch_slots", "issue", "retire", "abort",
                 "cycle_end", "tagged_retire", "tagged_abort",
                 "fetch_every_cycle", "fetch_countdown",
                 "fetch_counts_instructions", "_counter", "_tagged",
                 "_unsubscribed")

    def __init__(self):
        self.probes = []
        self.fetch_countdown = COUNTDOWN_IDLE
        self.fetch_counts_instructions = True
        self._counter = None  # the probe owning fetch_countdown
        self._tagged = set()  # id() of probes taking tagged events only
        self._unsubscribed = set()  # (id(probe), callback name)
        self._rebuild()

    def subscribe(self, probe):
        """Register *probe*, wiring only the callbacks it implements."""
        self.probes.append(probe)
        self._rebuild()
        return probe

    def detach(self, probe):
        """Unregister *probe*, rebuilding every subscriber list.

        Detach is rare (a one-shot two-speed window probe tearing down,
        a watch session ending) so the lists are rebuilt wholesale from
        the surviving probes — attach order is preserved and the hot
        path keeps iterating plain lists of bound methods.  Detaching a
        probe that was never attached raises ``ValueError``: a double
        detach is a lifecycle bug worth hearing about.
        """
        self.probes.remove(probe)
        if probe is self._counter:
            self._counter = None
            self.fetch_countdown = COUNTDOWN_IDLE
        self._tagged.discard(id(probe))
        self._unsubscribed = {entry for entry in self._unsubscribed
                              if entry[0] != id(probe)}
        self._rebuild()
        return probe

    def count_fetch_slots(self, probe, instructions):
        """Make *probe* the owner of the fetch countdown.

        *instructions* says what one count is: a predicted-path
        instruction (True) or a fetch opportunity (False).  Returns
        False, leaving *probe* an every-cycle subscriber, when another
        probe already owns the countdown.
        """
        if self._counter is not None and self._counter is not probe:
            return False
        self._counter = probe
        self.fetch_counts_instructions = instructions
        self._rebuild()
        return True

    def deliver_tagged_only(self, probe):
        """Call *probe*'s on_retire/on_abort only for tagged DynInsts."""
        self._tagged.add(id(probe))
        self._rebuild()

    def unsubscribe_callback(self, probe, name):
        """Stop calling *probe*'s callback *name* until resubscribed."""
        self._unsubscribed.add((id(probe), name))
        self._rebuild()

    def subscribe_callback(self, probe, name):
        """Resume calling *probe*'s callback *name*."""
        self._unsubscribed.discard((id(probe), name))
        self._rebuild()

    def subscriptions(self, probe):
        """The callback names *probe* is subscribed to (for tests/tools)."""
        return tuple(name for name in PROBE_CALLBACKS
                     if self._delivers(probe, name))

    def _delivers(self, probe, name):
        return (probe_overrides(probe, name)
                and (id(probe), name) not in self._unsubscribed)

    def _rebuild(self):
        for name, attr in _LISTS.items():
            setattr(self, attr, [
                getattr(p, name) for p in self.probes
                if self._delivers(p, name)
                and not (name in _TAGGED_LISTS and id(p) in self._tagged)])
        for name, attr in _TAGGED_LISTS.items():
            setattr(self, attr, [
                getattr(p, name) for p in self.probes
                if id(p) in self._tagged and self._delivers(p, name)])
        self.fetch_every_cycle = any(
            p is not self._counter for p in self.probes
            if self._delivers(p, "on_fetch_slots"))
