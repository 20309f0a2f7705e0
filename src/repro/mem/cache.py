"""Set-associative cache model with true-LRU replacement.

The model tracks tags only (no data): the simulators move architectural
values through registers and a sparse word memory, while the cache decides
*latency* and *events*.  That split is standard for cycle-level performance
models and is all ProfileMe observes — hit/miss events and latencies.
"""

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.probes.props import ratio


def _is_power_of_two(value):
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 2

    def __post_init__(self):
        for field_name in ("size_bytes", "line_bytes", "associativity"):
            value = getattr(self, field_name)
            if not _is_power_of_two(value):
                raise ConfigError("%s.%s must be a power of two, got %r"
                                  % (self.name, field_name, value))
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ConfigError("%s: size %d too small for %d-way %dB lines"
                              % (self.name, self.size_bytes,
                                 self.associativity, self.line_bytes))

    @property
    def num_sets(self):
        return self.size_bytes // (self.line_bytes * self.associativity)


class Cache:
    """One cache level.  ``access`` returns hit/miss and fills on miss."""

    def __init__(self, config):
        self.config = config
        # One MRU-first tag list per set.  The trace cache's fused blocks
        # (repro.cpu.tracecache) read these lists, ``_line_shift`` and
        # ``_set_mask`` directly: a line already at the head of its set
        # is a hit that only bumps ``hits``, and they count it inline.
        self._sets = [[] for _ in range(config.num_sets)]
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self.hits = 0
        self.misses = 0

    def _locate(self, addr):
        line = addr >> self._line_shift
        return self._sets[line & self._set_mask], line

    def access(self, addr, fill=True):
        """Look up *addr*; return True on hit.

        On a miss with *fill*, the line is brought in, evicting the LRU way.
        MRU order is maintained by moving the hit tag to the list head.
        """
        ways, line = self._locate(addr)
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            self.hits += 1
            return True
        self.misses += 1
        if fill:
            ways.insert(0, line)
            if len(ways) > self.config.associativity:
                ways.pop()
        return False

    def probe(self, addr):
        """Non-destructive lookup: True if *addr* is resident (no LRU update)."""
        ways, line = self._locate(addr)
        return line in ways

    def invalidate_all(self):
        """Empty the cache (cold restart)."""
        self._sets = [[] for _ in range(self.config.num_sets)]

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        return ratio(self.misses, self.accesses)
