"""Global branch-history register.

Most 90s-era predictors keep the directions of the last N conditional
branches in a shift register.  ProfileMe's *Profiled Path Register* captures
this register at instruction fetch time (section 4.1.3); the Figure 6
analysis then walks the CFG backwards matching its bits.

Bit 0 is the direction of the most recently resolved conditional branch;
bit k is the direction k branches ago.  Only conditional branches shift the
register (unconditional control flow carries no direction information).
"""


class GlobalHistoryRegister:
    """An N-bit taken/not-taken shift register."""

    def __init__(self, bits=16):
        if bits < 1:
            raise ValueError("history register needs >= 1 bit")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0
        self.shifted = 0  # total directions ever shifted in

    def push(self, taken):
        """Record one conditional-branch direction.

        The trace cache's fused blocks (repro.cpu.tracecache) make this
        same update inline on ``value``, ``_mask`` and ``shifted``.
        """
        self.value = ((self.value << 1) | (1 if taken else 0)) & self._mask
        self.shifted += 1

    def snapshot(self):
        """Current (value, shifted) state, for speculative repair."""
        return (self.value, self.shifted)

    def restore(self, snapshot):
        """Roll back to a previously captured snapshot (mispredict repair)."""
        self.value, self.shifted = snapshot

    def low_bits(self, count):
        """The *count* most recent directions (LSB = most recent)."""
        if count > self.bits:
            raise ValueError("asked for %d bits from a %d-bit register"
                             % (count, self.bits))
        return self.value & ((1 << count) - 1)


def history_bits_list(value, count):
    """Expand *count* low bits of a history value into [most_recent, ...]."""
    return [(value >> k) & 1 for k in range(count)]
