"""The Fetched Instruction Counter (section 4.1.1).

Software writes a pseudo-random value; the counter decrements as the
fetcher advances, and the instruction (or fetch opportunity) it lands on
is selected for profiling.  Both counting disciplines the paper discusses
are implemented:

* ``CountMode.INSTRUCTIONS`` — decrement once per instruction fetched on
  the predicted control path.  Every selection lands on an instruction,
  but the hardware must handle the variable number (0..fetch_width) of
  predicted-path instructions per cycle.
* ``CountMode.FETCH_OPPORTUNITIES`` — decrement once per fetch opportunity
  (fetch_width per cycle, unconditionally).  Simpler hardware, but a
  selection may land on an off-path instruction or on no instruction at
  all, "effectively reducing the useful sampling rate".

The yield difference between the two modes is quantified by
``benchmarks/bench_ablation_fetch_modes.py``.
"""

import enum

from repro.cpu.probes import SLOT_INST
from repro.errors import ConfigError, SimulationError


class CountMode(enum.Enum):
    """What one counter decrement corresponds to."""

    INSTRUCTIONS = "instructions"
    FETCH_OPPORTUNITIES = "fetch_opportunities"


class FetchedInstructionCounter:
    """Software-writable down-counter over the fetch stream.

    ``remaining`` is the number of counted slots left before the counter
    fires (None while disarmed).  The fetcher counts down in bulk while
    the counter cannot expire and walks a cycle's :meth:`counted` slots
    one at a time only on a cycle where it can; the slot on which
    :meth:`advance` reaches zero is the selected one.
    """

    def __init__(self, mode=CountMode.INSTRUCTIONS):
        if not isinstance(mode, CountMode):
            raise ConfigError("mode must be a CountMode, got %r" % (mode,))
        self.mode = mode
        self.remaining = None  # None = disarmed

    def write(self, value):
        """Arm the counter with *value* (the software's random interval)."""
        if value < 1:
            raise ConfigError("counter value must be >= 1, got %r" % (value,))
        self.remaining = value

    def disarm(self):
        self.remaining = None

    def counted(self, slots):
        """The slots of one cycle that decrement the counter, in order."""
        if self.mode is CountMode.FETCH_OPPORTUNITIES:
            return slots
        return [slot for slot in slots if slot.kind == SLOT_INST]

    def advance(self, count):
        """Count down *count* slots; True if the counter fired on the last.

        A fired counter disarms.  Counting past zero means a fetcher
        skipped the slot the counter should have landed on, which is a
        simulator bug, so it raises rather than selecting late.
        """
        if self.remaining is None:
            return False
        if count > self.remaining:
            raise SimulationError("fetch counter overshot: %d counted with "
                                  "%d remaining" % (count, self.remaining))
        self.remaining -= count
        if self.remaining:
            return False
        self.remaining = None
        return True
