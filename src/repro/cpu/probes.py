"""Observation interface between cores and profiling hardware.

Both cores publish their activity through :class:`Probe` callbacks.  The
ProfileMe unit, the event-counter baseline, and the ground-truth collector
are all probes: they see the same machine through the same pinhole, which
is what makes "counters vs. ProfileMe on identical executions"
(Figure 2) a controlled comparison.

Fetch slots
-----------
``on_fetch_slots`` reports one entry per *fetch opportunity* — the paper's
term for the fetch_width slots available each cycle.  A slot carries a
DynInst (predicted-path instruction), a bare PC (instruction present in the
fetch block but off the predicted path), or nothing (fetcher stalled /
beyond a taken branch with no instruction).  This is exactly the
information the section 4.1.1 instruction-selection hardware works from.
A subscriber gets every cycle's slots unless it owns the fetch countdown
(:mod:`repro.engine.bus`), which skips the cycles it cannot act on.
"""

from dataclasses import dataclass
from typing import Optional

from repro.cpu.dynops import DynInst

SLOT_INST = "inst"  # predicted-path instruction (enters the pipeline)
SLOT_OFFPATH = "offpath"  # instruction in the block, off the predicted path
SLOT_EMPTY = "empty"  # no instruction available this opportunity


@dataclass
class FetchSlot:
    """One fetch opportunity in one cycle."""

    __slots__ = ("kind", "dyninst", "pc")

    kind: str
    dyninst: Optional[DynInst]
    pc: Optional[int]


def inst_slot(dyninst):
    return FetchSlot(kind=SLOT_INST, dyninst=dyninst, pc=dyninst.pc)


def offpath_slot(pc):
    return FetchSlot(kind=SLOT_OFFPATH, dyninst=None, pc=pc)


_EMPTY_SLOT = FetchSlot(kind=SLOT_EMPTY, dyninst=None, pc=None)


def empty_slot():
    # Empty slots carry no per-instance state; share one object (probes
    # must treat slots as read-only, which they do).
    return _EMPTY_SLOT


class Probe:
    """Base class: overriding any subset of callbacks is fine."""

    def attach(self, core):
        """Called once when the probe is registered with a core."""

    def on_fetch_slots(self, cycle, slots):
        """All fetch opportunities of *cycle*, in slot order."""

    def on_issue(self, dyninst, cycle):
        """*dyninst* was issued to a functional unit at *cycle*."""

    def on_retire(self, dyninst, cycle):
        """*dyninst* retired (architecturally committed) at *cycle*."""

    def on_abort(self, dyninst, cycle):
        """*dyninst* left the machine without retiring at *cycle*."""

    def on_cycle_end(self, cycle):
        """The core finished simulating *cycle*."""
