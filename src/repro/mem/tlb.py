"""Fully-associative TLB model with LRU replacement.

Like the caches, the TLB tracks only which page translations are resident:
hit/miss is what the Profiled Event Register records (ITB/DTB miss bits)
and what the section 7 superpage/page-remapping policies consume.
"""

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.probes.props import ratio


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB."""

    name: str
    entries: int = 128
    page_bytes: int = 8192

    def __post_init__(self):
        if self.entries < 1:
            raise ConfigError("%s: TLB needs >= 1 entry" % self.name)
        if self.page_bytes & (self.page_bytes - 1):
            raise ConfigError("%s: page size must be a power of two"
                              % self.name)


class Tlb:
    """Fully-associative translation buffer."""

    def __init__(self, config):
        self.config = config
        # MRU-first list of resident page numbers.  The trace cache's
        # fused blocks (repro.cpu.tracecache) read it and ``_page_shift``
        # directly: an access to the head page is a hit that only bumps
        # ``hits``, and they count it inline.
        self._pages = []
        self._page_shift = config.page_bytes.bit_length() - 1
        self.hits = 0
        self.misses = 0

    def page_of(self, addr):
        return addr >> self._page_shift

    def access(self, addr):
        """Translate *addr*; returns True on hit, fills on miss."""
        page = self.page_of(addr)
        if page in self._pages:
            if self._pages[0] != page:
                self._pages.remove(page)
                self._pages.insert(0, page)
            self.hits += 1
            return True
        self.misses += 1
        self._pages.insert(0, page)
        if len(self._pages) > self.config.entries:
            self._pages.pop()
        return False

    def invalidate_all(self):
        self._pages = []

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        return ratio(self.misses, self.accesses)
