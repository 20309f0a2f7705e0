"""Profiling software: the interrupt handler side of ProfileMe (section 5).

``ProfileMeDriver`` plays the role of the DCPI-style daemon: it registers
itself as the ProfileMe interrupt handler, receives batches of records,
and either logs them (complete-samples mode) or folds them into
aggregation sinks as they arrive (the compact-storage mode the paper
recommends: "aggregating samples for the same instruction").

The driver is deliberately thin — the real analysis lives in
``repro.analysis`` — but it is the single place records enter software,
so retention policy (keep-all vs. aggregate-only, and the ``max_records``
cap that bounds keep-all on long runs) is decided here.
"""

from repro.profileme.registers import (GroupRecord, PairedRecord,
                                       sample_records)


class ProfileMeDriver:
    """Collects delivered samples and dispatches them to sinks."""

    def __init__(self, keep_records=True, max_records=None):
        """*max_records*: cap on retained samples across ``records`` /
        ``pairs`` / ``groups`` (None = unbounded).  Samples past the cap
        still reach every sink and still count in ``delivered`` — only
        raw retention stops, with ``dropped`` counting what was shed, so
        a long continuous-profiling session cannot exhaust memory.
        """
        self.keep_records = keep_records
        self.max_records = max_records
        self.records = []  # ProfileRecord (single sampling)
        self.pairs = []  # PairedRecord (paired sampling)
        self.groups = []  # GroupRecord (N-way sampling)
        self.delivered = 0
        self.batches = 0
        self.dropped = 0  # samples not retained because of max_records
        self._sinks = []

    @property
    def retained(self):
        """Samples currently held across all three retention lists."""
        return len(self.records) + len(self.pairs) + len(self.groups)

    def add_sink(self, sink):
        """Register an object with an ``add(record)`` method.

        Sinks receive every record (for pairs, the PairedRecord itself);
        ``repro.analysis.database.ProfileDatabase`` and
        ``repro.analysis.concurrency.PairAnalyzer`` are the standard
        sinks, ``repro.service.client.ServiceSink`` ships records to a
        profile server.
        """
        self._sinks.append(sink)
        return sink

    def handle_interrupt(self, batch):
        """The interrupt handler: invoked by the hardware with >= 1 records."""
        self.batches += 1
        for sample in batch:
            self.delivered += 1
            if self.keep_records:
                if (self.max_records is not None
                        and self.retained >= self.max_records):
                    self.dropped += 1
                elif isinstance(sample, PairedRecord):
                    self.pairs.append(sample)
                elif isinstance(sample, GroupRecord):
                    self.groups.append(sample)
                else:
                    self.records.append(sample)
            for sink in self._sinks:
                sink.add(sample)

    def all_single_records(self):
        """Every ProfileRecord seen, unpacking pairs/groups into members."""
        unpacked = list(self.records)
        for sample in self.pairs + self.groups:
            unpacked.extend(sample_records(sample))
        return unpacked
