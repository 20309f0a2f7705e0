"""Profile database: per-PC incremental aggregation of ProfileMe samples.

Section 5 of the paper: "Space consumption can be reduced by processing
some of the information as the samples are gathered, such as by
aggregating samples for the same instruction, as is done ... in DIGITAL's
Continuous Profiling Infrastructure (DCPI)".  ``ProfileDatabase`` is that
aggregator: constant space per static instruction, one update per sample.

**Columnar layout.**  Aggregates live in a struct-of-arrays
:class:`_ColumnStore`: one ``pc -> row`` index plus parallel per-row
columns — ``samples``, ``taken``, one count column per
``AGGREGATED_EVENTS`` flag, and a ``(count, total, total_sq)`` column
triple per latency register.  Count columns are ``array('q')`` (packed
machine integers, C-speed bulk copies); the latency sum/sum-of-squares
columns are plain lists because they hold unbounded Python integers
(``total_sq`` grows as ``n * value**2``).  An interned event-combo table
maps each distinct events bit-field to the tuple of count columns it
increments, so folding a sample touches no per-flag dict machinery.
``merge`` is column-wise vector addition over a row map (wholesale
column copies when the destination is empty — the shape of every
``collect_database`` query), and ``top_by_event`` is ``heapq.nlargest``
over a single column.

**Buckets.**  The database is a list of time buckets, each one column
store.  With ``rollup_interval > 0`` samples fold into the bucket
covering their ``fetch_cycle``; closed buckets roll up into
exponentially coarser epochs (1x/8x/64x the interval) and a
``retain_buckets`` cap evicts the oldest buckets with exact
``evicted_samples`` accounting, keeping the database bounded under
continuous ingest (the DCPI "database stays bounded" property).  With
``rollup_interval == 0`` (the default) the database is flat: one
level-0 bucket that takes every tick, reported as no buckets at all and
serialized as the version-1 document, byte-for-byte the pre-columnar
format.  Only bucket routing, that reporting and the document choice
look at ``rollup_interval``; every read goes through one merged store.

The dataclass views (:class:`PcProfile`, :class:`LatencyAggregate`) are
preserved as the read API: ``per_pc`` materializes them from the columns
on demand (cached until the next mutation), so every existing consumer
reads exactly what it always read.
"""

import heapq
import operator
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict

from repro.errors import AnalysisError
from repro.events import Event
from repro.profileme.registers import LATENCY_FIELDS, sample_records

# Event flags aggregated per PC (mirrors the ground-truth tracker so the
# two sides of the Figure 3 comparison count the same things).
AGGREGATED_EVENTS = (
    Event.RETIRED,
    Event.ABORTED,
    Event.DCACHE_MISS,
    Event.ICACHE_MISS,
    Event.DTB_MISS,
    Event.ITB_MISS,
    Event.L2_MISS,
    Event.BRANCH_TAKEN,
    Event.MISPREDICT,
    Event.STORE_FORWARD,
    Event.BAD_PATH,
)

_EVENT_COLUMN = {flag: column for column, flag in enumerate(AGGREGATED_EVENTS)}
_LATENCY_COLUMN = {name: column for column, name in enumerate(LATENCY_FIELDS)}
_N_LATENCIES = len(LATENCY_FIELDS)
_TAKEN_KEY = int(Event.BRANCH_TAKEN)
_DCACHE_MISS = int(Event.DCACHE_MISS)
_DTB_MISS = int(Event.DTB_MISS)

# Exponential epoch spans, as multiples of the rollup interval: level 0
# holds live buckets, 8 aligned level-0 buckets roll up into one level-1
# epoch, 8 level-1 epochs into one level-2 epoch.
EPOCH_SPANS = (1, 8, 64)
_EPOCH_FANOUT = 8

# events bit-field -> tuple of set AGGREGATED_EVENTS flags.  Sample
# streams draw from a handful of event combinations, so decomposing a
# bit-field into flags is memoizable; the cache is bounded because the
# flag universe is (practically, a few dozen combinations; absolutely,
# 2**len(Event)).
_FLAG_CACHE = {}


def decompose_events(events):
    """The AGGREGATED_EVENTS flags set in *events*, as a cached tuple."""
    key = int(events)
    cached = _FLAG_CACHE.get(key)
    if cached is None:
        cached = _FLAG_CACHE[key] = tuple(
            flag for flag in AGGREGATED_EVENTS if key & flag)
    return cached


@dataclass
class LatencyAggregate:
    """Streaming (count, sum, sum of squares) for one latency register."""

    count: int = 0
    total: int = 0
    total_sq: int = 0

    def add(self, value):
        self.count += 1
        self.total += value
        self.total_sq += value * value

    @property
    def mean(self):
        if self.count == 0:
            return None
        return self.total / self.count

    @property
    def variance(self):
        if self.count < 2:
            return None
        mean = self.total / self.count
        return max(0.0, self.total_sq / self.count - mean * mean)


@dataclass
class PcProfile:
    """Aggregated samples for one static instruction (materialized view)."""

    pc: int
    samples: int = 0
    events: Dict[Event, int] = field(default_factory=dict)
    latencies: Dict[str, LatencyAggregate] = field(default_factory=dict)
    taken_count: int = 0  # conditional-branch direction profile
    addresses: list = field(default_factory=list)

    @property
    def retired_samples(self):
        return self.events.get(Event.RETIRED, 0)

    def event_count(self, flag):
        return self.events.get(flag, 0)

    def event_fraction(self, flag):
        if self.samples == 0:
            return 0.0
        return self.events.get(flag, 0) / self.samples

    def latency(self, name):
        aggregate = self.latencies.get(name)
        if aggregate is None:
            return LatencyAggregate()
        return aggregate


@dataclass
class ProbeSeries:
    """Streaming aggregate of one probe's readings over time.

    The database-side form of streamed registry readings: constant
    space per probe name, commutative merge (shards fold readings in
    arrival order; ``last`` is resolved by the highest tick, ties by
    value, so merging two shards is order-independent).
    """

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    last: float = 0.0
    last_tick: int = -1

    def add(self, value, tick):
        if self.count == 0:
            self.minimum = self.maximum = value
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
        self.count += 1
        self.total += value
        if (tick, value) >= (self.last_tick, self.last):
            self.last = value
            self.last_tick = tick

    @property
    def mean(self):
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def merge(self, other):
        if other.count == 0:
            return
        if self.count == 0:
            self.minimum, self.maximum = other.minimum, other.maximum
        else:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        self.count += other.count
        self.total += other.total
        if (other.last_tick, other.last) >= (self.last_tick, self.last):
            self.last = other.last
            self.last_tick = other.last_tick


class _ColumnStore:
    """One struct-of-arrays aggregate: parallel per-row columns.

    ``pcs`` and the latency sum columns are plain lists (PCs and the
    running ``n * value**2`` sums are unbounded Python integers); every
    count column is a packed ``array('q')``.
    """

    __slots__ = ("index", "pcs", "samples", "taken", "events", "extras",
                 "lat_count", "lat_total", "lat_sq", "total",
                 "_plans", "_lat_cols")

    def __init__(self):
        self.index = {}  # pc -> row
        self.pcs = []  # row -> pc
        self.samples = array("q")
        self.taken = array("q")
        self.events = tuple(array("q") for _ in AGGREGATED_EVENTS)
        self.extras = {}  # non-aggregated Event flag -> array('q')
        self.lat_count = tuple(array("q") for _ in LATENCY_FIELDS)
        self.lat_total = tuple([] for _ in LATENCY_FIELDS)
        self.lat_sq = tuple([] for _ in LATENCY_FIELDS)
        self.total = 0  # sum(samples)
        # Interned event-combo table: events bit-field -> tuple of count
        # columns to bump (the BRANCH_TAKEN plan includes ``taken``).
        # Plans hold direct array references, so they are per-store.
        self._plans = {}
        self._lat_cols = tuple(zip(self.lat_count, self.lat_total,
                                   self.lat_sq))

    # Plans and the zipped latency-column triples hold references into
    # the store's own arrays; both are caches, rebuilt on unpickle.
    def __getstate__(self):
        return (self.index, self.pcs, self.samples, self.taken, self.events,
                self.extras, self.lat_count, self.lat_total, self.lat_sq,
                self.total)

    def __setstate__(self, state):
        (self.index, self.pcs, self.samples, self.taken, self.events,
         self.extras, self.lat_count, self.lat_total, self.lat_sq,
         self.total) = state
        self._plans = {}
        self._lat_cols = tuple(zip(self.lat_count, self.lat_total,
                                   self.lat_sq))

    # ------------------------------------------------------------------
    # Rows and plans.

    def _new_row(self, pc):
        row = len(self.pcs)
        self.index[pc] = row
        self.pcs.append(pc)
        self.samples.append(0)
        self.taken.append(0)
        for column in self.events:
            column.append(0)
        for column in self.extras.values():
            column.append(0)
        for column in self.lat_count:
            column.append(0)
        for column in self.lat_total:
            column.append(0)
        for column in self.lat_sq:
            column.append(0)
        return row

    def _plan(self, key):
        columns = [column for flag, column
                   in zip(AGGREGATED_EVENTS, self.events) if key & flag]
        if key & _TAKEN_KEY:
            columns.append(self.taken)
        plan = self._plans[key] = tuple(columns)
        return plan

    def _extra_column(self, flag):
        column = self.extras.get(flag)
        if column is None:
            column = self.extras[flag] = array("q", bytes(8 * len(self.pcs)))
        return column

    # ------------------------------------------------------------------
    # Folding.

    def add_record(self, record):
        row = self.index.get(record.pc)
        if row is None:
            row = self._new_row(record.pc)
        self.samples[row] += 1
        self.total += 1
        key = int(record.events)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plan(key)
        for column in plan:
            column[row] += 1
        for value, cols in zip(_read_latencies(record), self._lat_cols):
            if value is not None:
                count_col, total_col, sq_col = cols
                count_col[row] += 1
                total_col[row] += value
                sq_col[row] += value * value

    def fold_counts(self, counts, signatures):
        """Fold counted identical samples; returns how many (see
        :meth:`ProfileDatabase.fold_signatures`)."""
        index = self.index
        samples = self.samples
        event_plans = self._plans
        lat_cols = self._lat_cols
        folded = 0
        for (pc, signature), count in counts.items():
            decoded = signatures[signature]
            events = decoded[0]
            row = index.get(pc)
            if row is None:
                row = self._new_row(pc)
            samples[row] += count
            folded += count
            plan = event_plans.get(events)
            if plan is None:
                plan = self._plan(events)
            for column in plan:
                column[row] += count
            for lat_column, value in decoded[1]:
                count_col, total_col, sq_col = lat_cols[lat_column]
                count_col[row] += count
                total_col[row] += count * value
                sq_col[row] += count * value * value
        self.total += folded
        return folded

    def set_profile(self, pc, profile):
        """Replace *pc*'s row with the contents of a :class:`PcProfile`."""
        row = self.index.get(pc)
        if row is None:
            row = self._new_row(pc)
        else:
            self.total -= self.samples[row]
            self.taken[row] = 0
            for column in self.events:
                column[row] = 0
            for column in self.extras.values():
                column[row] = 0
            for count_col, total_col, sq_col in self._lat_cols:
                count_col[row] = 0
                total_col[row] = 0
                sq_col[row] = 0
        self.samples[row] = profile.samples
        self.total += profile.samples
        self.taken[row] = profile.taken_count
        for flag, count in profile.events.items():
            column = _EVENT_COLUMN.get(flag)
            if column is not None:
                self.events[column][row] = count
            else:
                self._extra_column(flag)[row] = count
        for name, aggregate in profile.latencies.items():
            lat_column = _LATENCY_COLUMN.get(name)
            if lat_column is None:
                raise AnalysisError("unknown latency register %r" % (name,))
            self.lat_count[lat_column][row] = aggregate.count
            self.lat_total[lat_column][row] = aggregate.total
            self.lat_sq[lat_column][row] = aggregate.total_sq

    def merge(self, other):
        if not other.pcs:
            return
        if not self.pcs:
            # Wholesale adoption: C-level column copies.  This is the
            # dominant shape — every query merges shards into a fresh
            # database.
            self.__setstate__((
                dict(other.index), list(other.pcs),
                array("q", other.samples), array("q", other.taken),
                tuple(array("q", column) for column in other.events),
                {flag: array("q", column)
                 for flag, column in other.extras.items()},
                tuple(array("q", column) for column in other.lat_count),
                tuple(list(column) for column in other.lat_total),
                tuple(list(column) for column in other.lat_sq),
                other.total))
            return
        index = self.index
        rows_self = []
        rows_other = []
        for row_other, pc in enumerate(other.pcs):
            row_self = index.get(pc)
            if row_self is None:
                row_self = self._new_row(pc)
            rows_self.append(row_self)
            rows_other.append(row_other)
        row_map = list(zip(rows_self, rows_other))
        pairs = [(self.samples, other.samples), (self.taken, other.taken)]
        pairs.extend(zip(self.events, other.events))
        pairs.extend(zip(self.lat_count, other.lat_count))
        pairs.extend(zip(self.lat_total, other.lat_total))
        pairs.extend(zip(self.lat_sq, other.lat_sq))
        for flag, column in other.extras.items():
            pairs.append((self._extra_column(flag), column))
        for column_self, column_other in pairs:
            # Most (pc, column) cells are zero; skipping them keeps the
            # vector add proportional to the data actually present.
            for row_self, row_other in row_map:
                value = column_other[row_other]
                if value:
                    column_self[row_self] += value
        self.total += other.total

    # ------------------------------------------------------------------
    # Reads.

    def column_for(self, flag):
        column = _EVENT_COLUMN.get(flag)
        if column is not None:
            return self.events[column]
        return self.extras.get(flag)

    def profile_at(self, row, pc, addresses=None):
        events = {}
        for flag, column in zip(AGGREGATED_EVENTS, self.events):
            count = column[row]
            if count:
                events[flag] = count
        for flag, column in self.extras.items():
            count = column[row]
            if count:
                events[flag] = count
        latencies = {}
        for name, (count_col, total_col, sq_col) in zip(LATENCY_FIELDS,
                                                        self._lat_cols):
            count = count_col[row]
            total = total_col[row]
            total_sq = sq_col[row]
            if count or total or total_sq:
                latencies[name] = LatencyAggregate(
                    count=count, total=total, total_sq=total_sq)
        return PcProfile(pc=pc, samples=self.samples[row], events=events,
                         latencies=latencies, taken_count=self.taken[row],
                         addresses=list(addresses) if addresses else [])


# All six latency registers in one C-level call per record.
_read_latencies = operator.attrgetter(*LATENCY_FIELDS)


class _Bucket:
    """One time bucket: a column store covering [start, start + span)."""

    __slots__ = ("level", "start", "span", "store")

    def __init__(self, level, start, span):
        self.level = level
        self.start = start
        self.span = span
        self.store = _ColumnStore()


def _bucket_order(bucket):
    """Oldest first; an epoch sorts before the finer buckets inside it."""
    return (bucket.start, -bucket.level)


class ProfileDatabase:
    """Per-PC aggregation sink for ProfileMe records."""

    def __init__(self, keep_addresses=0, rollup_interval=0, retain_buckets=0):
        """*keep_addresses*: max effective addresses retained per PC.

        *rollup_interval*: when > 0, samples fold into time buckets of
        this many cycles (by ``fetch_cycle``); closed buckets roll up
        into exponentially coarser epochs.  0 keeps one flat bucket
        that covers every tick.

        *retain_buckets*: hard cap on live buckets (0 = unbounded);
        the oldest buckets are evicted, with the evicted sample count
        accounted in :attr:`evicted_samples`.  Requires a rollup
        interval.
        """
        if rollup_interval < 0:
            raise AnalysisError("rollup_interval must be >= 0, got %r"
                                % (rollup_interval,))
        if retain_buckets < 0:
            raise AnalysisError("retain_buckets must be >= 0, got %r"
                                % (retain_buckets,))
        if retain_buckets and not rollup_interval:
            raise AnalysisError("retain_buckets requires a rollup_interval")
        self.keep_addresses = keep_addresses
        self.rollup_interval = rollup_interval
        self.retain_buckets = retain_buckets
        self.total_samples = 0
        self.evicted_samples = 0
        self.probes = {}  # probe name -> ProbeSeries
        # Effective addresses are a capped side table, not bucketed:
        # retention is by arrival order, which rollup cannot reorder.
        self._addresses = {}  # pc -> [(addr, dcache_miss, dtb_miss), ...]
        # Buckets, oldest first; the current one takes in-order ticks.
        # A flat database is one level-0 bucket that is always current.
        self._buckets = []
        self._current = None
        if not rollup_interval:
            self._current = _Bucket(0, 0, 0)
            self._buckets.append(self._current)
        self._generation = 0
        self._view = None
        self._view_generation = -1
        self._merged = None
        self._merged_generation = -1

    # The per_pc view and the merged-store scratch are caches, dropped
    # on pickle (worker checkpoints pickle whole databases; a
    # MappingProxyType does not pickle).
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_view"] = None
        state["_view_generation"] = -1
        state["_merged"] = None
        state["_merged_generation"] = -1
        return state

    # ------------------------------------------------------------------
    # Bucket routing.

    def _store_for(self, tick):
        current = self._current
        if not self.rollup_interval or (
                current is not None
                and current.start <= tick < current.start + current.span):
            return current.store
        return self._route(tick).store

    def _current_bucket(self):
        """The current bucket, opened at tick 0 if there is none yet."""
        if self._current is None:
            return self._route(0)
        return self._current

    def _route(self, tick):
        interval = self.rollup_interval
        start = tick - tick % interval
        current = self._current
        if current is None or start > current.start:
            bucket = _Bucket(0, start, interval)
            self._buckets.append(bucket)
            self._buckets.sort(key=_bucket_order)
            self._current = bucket
            self._normalize()
            return bucket
        # A straggler older than the current bucket: fold it into the
        # bucket covering its tick, clamping anything older than the
        # retained horizon into the oldest bucket (so a late sample is
        # retained-and-coarse, never silently dropped).
        for bucket in reversed(self._buckets):
            if bucket.start <= tick < bucket.start + bucket.span:
                return bucket
        return self._buckets[0]

    def _normalize(self):
        """Roll closed buckets into coarser epochs; enforce retention."""
        interval = self.rollup_interval
        current = self._current
        buckets = self._buckets
        if current is not None:
            table = {(bucket.level, bucket.start): bucket
                     for bucket in buckets}
            rolled = False
            for level in (0, 1):
                coarse = interval * EPOCH_SPANS[level] * _EPOCH_FANOUT
                horizon = current.start - current.start % coarse
                for key in [k for k in table if k[0] == level]:
                    bucket = table[key]
                    if bucket is current or bucket.start >= horizon:
                        continue
                    block = bucket.start - bucket.start % coarse
                    target = table.get((level + 1, block))
                    if target is None:
                        target = table[(level + 1, block)] = _Bucket(
                            level + 1, block, coarse)
                    target.store.merge(bucket.store)
                    del table[key]
                    rolled = True
            if rolled:
                buckets = self._buckets = sorted(
                    table.values(), key=_bucket_order)
        retain = self.retain_buckets
        if retain:
            while len(buckets) > retain and buckets[0] is not self._current:
                evicted = buckets.pop(0)
                count = evicted.store.total
                self.evicted_samples += count
                self.total_samples -= count

    # ------------------------------------------------------------------
    # Folding.

    def add(self, sample):
        """Fold one record (or every member of a paired/N-way sample) in."""
        for record in sample_records(sample):
            self.add_record(record)

    def add_record(self, record):
        self._store_for(record.fetch_cycle).add_record(record)
        self.total_samples += 1
        self._generation += 1
        if self.keep_addresses and record.addr is not None:
            self.retain_addresses(((record.pc, record.addr, record.events),))

    def retain_addresses(self, entries):
        """Append ``(pc, addr, events bit-field)`` *entries* to the
        effective-address table in arrival order, up to
        :attr:`keep_addresses` per pc; an entry whose addr is None is
        skipped.  The table is a side table outside the buckets, so the
        shard fold appends a payload's addresses after its counts."""
        cap = self.keep_addresses
        table = self._addresses
        for pc, addr, events in entries:
            if addr is None:
                continue
            addresses = table.get(pc)
            if addresses is None:
                addresses = table[pc] = []
            if len(addresses) < cap:
                addresses.append((addr, bool(events & _DCACHE_MISS),
                                  bool(events & _DTB_MISS)))
        self._generation += 1

    def fold_signatures(self, counts, signatures, tick=0):
        """Fold counted identical samples that share one rollup bucket.

        The service's shard fold (:class:`repro.service.fold.ShardFolder`)
        counts each payload's records by ``(pc, signature)`` and lands
        every run of records that share a bucket here in one call:
        *counts* maps ``(pc, signature)`` to a sample count, and
        *signatures* maps each signature to a tuple that opens with
        ``(events bit-field, ((latency column, value), ...))`` over
        :data:`~repro.profileme.registers.LATENCY_FIELDS` (the shard
        fold's memo holds :func:`~repro.service.protocol.decode_signature`
        results, whose further fields are not read here).  *tick*
        routes the whole run, so bucket creation, rollup and eviction
        happen once, as they would for its first record.  ``count``
        identical samples cost one multiply per column, and the integer
        arithmetic makes the result equal to ``count`` ``add_record``
        calls.
        """
        store = self._store_for(tick)  # may evict: route before adding
        self.total_samples += store.fold_counts(counts, signatures)
        self._generation += 1

    def add_probe_readings(self, readings, tick):
        """Fold one streamed registry reading set in.

        *readings* is ``{probe name: value}`` at cycle/tick *tick*;
        non-numeric values (unlatched registers read as None, enum
        names) are skipped — the series aggregates only quantities.
        """
        for name, value in readings.items():
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                continue
            series = self.probes.get(name)
            if series is None:
                series = ProbeSeries()
                self.probes[name] = series
            series.add(value, tick)

    def set_profile(self, pc, profile):
        """Replace *pc*'s aggregate with the contents of *profile*.

        The row is keyed by *pc*, not ``profile.pc`` (the multiprog
        layer re-keys profiles under context-shifted PCs).  Bulk loaders
        use this to rebuild a database from profiles; it leaves
        ``total_samples`` untouched, so the loader sets that itself.
        """
        self._current_bucket().store.set_profile(pc, profile)
        if profile.addresses:
            self._addresses[pc] = list(profile.addresses)
        else:
            self._addresses.pop(pc, None)
        self._generation += 1

    # ------------------------------------------------------------------
    # Views.

    @property
    def per_pc(self):
        """Read-only ``{pc: PcProfile}`` materialized from the columns
        (cached until the next mutation); write with :meth:`set_profile`."""
        if self._view is None or self._view_generation != self._generation:
            addresses = self._addresses
            store = self._merged_store()
            profile_at = store.profile_at
            self._view = MappingProxyType({
                pc: profile_at(row, pc, addresses.get(pc))
                for row, pc in enumerate(store.pcs)})
            self._view_generation = self._generation
        return self._view

    def _merged_store(self):
        """All buckets merged into one store: the bucket's own store
        when there is one bucket, else a cached scratch merge."""
        if len(self._buckets) == 1:
            return self._buckets[0].store
        if self._merged is None \
                or self._merged_generation != self._generation:
            merged = _ColumnStore()
            for bucket in self._buckets:
                merged.merge(bucket.store)
            self._merged = merged
            self._merged_generation = self._generation
        return self._merged

    # ------------------------------------------------------------------
    # Queries.

    def pcs(self):
        return sorted(self._merged_store().index)

    def profile(self, pc):
        store = self._merged_store()
        row = store.index.get(pc)
        if row is None:
            return None
        return store.profile_at(row, pc, self._addresses.get(pc))

    def samples_at(self, pc):
        store = self._merged_store()
        row = store.index.get(pc)
        return store.samples[row] if row is not None else 0

    def top_by_event(self, flag, limit=10):
        """PCs ranked by sampled count of *flag*: count descending, ties
        by ascending PC (deterministic across any shard-merge order)."""
        store = self._merged_store()
        column = store.column_for(flag)
        if column is None:
            ranked = heapq.nsmallest(limit, store.pcs)
            return [(pc, 0) for pc in ranked]
        best = heapq.nlargest(
            limit, ((column[row], -pc) for row, pc in enumerate(store.pcs)))
        return [(-negated_pc, count) for count, negated_pc in best]

    def epoch_summaries(self):
        """Per-bucket rollup state, oldest first (empty when disabled).

        Each entry: ``{"level", "start", "span", "samples", "pcs"}``.
        """
        if not self.rollup_interval:
            return []
        return [{"level": bucket.level, "start": bucket.start,
                 "span": bucket.span, "samples": bucket.store.total,
                 "pcs": len(bucket.store.index)}
                for bucket in self._buckets]

    @property
    def bucket_count(self):
        return len(self._buckets) if self.rollup_interval else 0

    @property
    def ingested_samples(self):
        """Everything ever folded in: retained + evicted."""
        return self.total_samples + self.evicted_samples

    def to_dict(self):
        """Serialize to the versioned ``repro-profile`` document form.

        Convenience delegate to :mod:`repro.analysis.persistence` (the
        canonical format definition lives there); the profiling service
        ships shards and exports through this document form.
        """
        from repro.analysis.persistence import database_to_dict

        return database_to_dict(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a database from :meth:`to_dict` output."""
        from repro.analysis.persistence import database_from_dict

        return database_from_dict(data)

    # ------------------------------------------------------------------
    # Persistence support (used by repro.analysis.persistence).

    def bucket_views(self):
        """``(level, start, span, {pc: PcProfile})`` per bucket, oldest
        first — the bucketed document's payload (profiles materialize
        without the global address table; addresses serialize
        separately)."""
        views = []
        for bucket in self._buckets:
            store = bucket.store
            profiles = {pc: store.profile_at(store.index[pc], pc)
                        for pc in store.pcs}
            views.append((bucket.level, bucket.start, bucket.span, profiles))
        return views

    def load_bucket(self, level, start, span, profiles):
        """Restore one bucket from its document form (*profiles* is an
        iterable of ``(pc, PcProfile)``)."""
        bucket = _Bucket(level, start, span)
        store = bucket.store
        for pc, profile in profiles:
            store.set_profile(pc, profile)
        self._buckets.append(bucket)
        self._buckets.sort(key=_bucket_order)
        if level == 0 and (self._current is None
                           or start > self._current.start):
            self._current = bucket
        self._generation += 1

    def addresses_table(self):
        """The capped effective-address side table, ``{pc: [(addr,
        dcache_miss, dtb_miss), ...]}`` (live reference)."""
        return self._addresses

    # ------------------------------------------------------------------
    # Merge.

    def merge(self, other):
        """Fold another database's aggregates into this one.

        Bucketed databases align bucket-for-bucket on ``(level, start)``
        (so ``rollup(a) . merge . rollup(b) == rollup(a + b)`` when the
        two streams were bucketed on the same boundaries), then
        re-normalize.  Otherwise the other side's merged store folds
        into the current bucket.
        """
        if self.rollup_interval and other.rollup_interval:
            table = {(bucket.level, bucket.start): bucket
                     for bucket in self._buckets}
            for theirs in other._buckets:
                key = (theirs.level, theirs.start)
                mine = table.get(key)
                if mine is None:
                    mine = table[key] = _Bucket(*key, theirs.span)
                mine.store.merge(theirs.store)
            self._buckets = sorted(table.values(), key=_bucket_order)
            self._current = next((bucket for bucket
                                  in reversed(self._buckets)
                                  if bucket.level == 0), None)
            self._normalize()
        else:
            theirs = other._merged_store()
            if theirs.pcs:
                self._current_bucket().store.merge(theirs)
        self.total_samples += other.total_samples
        self.evicted_samples += other.evicted_samples
        if self.keep_addresses:
            for pc, theirs in other._addresses.items():
                mine = self._addresses.get(pc)
                if mine is None:
                    mine = self._addresses[pc] = []
                room = self.keep_addresses - len(mine)
                if room > 0:
                    mine.extend(theirs[:room])
        self._generation += 1
        for name, series in other.probes.items():
            target = self.probes.get(name)
            if target is None:
                target = ProbeSeries()
                self.probes[name] = target
            target.merge(series)
