"""Workload ``ingest-query``: writes beside reads on ``repro serve``.

A ``repro serve --shards 2`` subprocess (rollup on, retention off) takes a
seeded stream of paired ProfileMe samples drawn from real profiles of four
suite programs, with timestamps rising along the stream.  The generator is
one thread with two connections, one per shard, and runs two segments:

* fixed rate, open loop: 256-sample pushes (the ``ServiceSink`` batch) at
  a fixed record rate, with ``top``/``latency``/``epochs``/``stats``
  queries on a fixed schedule, each timed from when it was due;
* saturation: the rest of the stream is pushed as fast as the sockets
  accept it, in chunks that stay inside the server's per-shard queue
  (so nothing is shed), each chunk ended by a drain on both connections.

The served export must equal an in-process fold of the same stream byte
for byte, and folded + dropped must equal sent.
"""

import dataclasses
import os
import random
import signal
import subprocess
import sys
import time
from statistics import median

import hostproc
from benchstats import (highest_supported_percentile, on_time_share,
                        open_loop_latencies, percentile)
from hostspeed import HostSpeed, nominal
from tracing import Tracer, instrumented

SHARDS = 2
ROLLUP_INTERVAL = 200_000  # cycles per rollup bucket
BATCH = 256  # samples per push, the ServiceSink batch size
FIXED_RATE = 6_000  # records (pair members) per second, fixed segment
QUERY_RATE = 15.0  # queries per second, fixed segment
QUERY_KINDS = ("top", "latency", "epochs", "stats")
# A query is on time when it is answered before the next one is due.
QUERY_DEADLINE_MS = 1000.0 / QUERY_RATE
# >= 360 queries, so p95 has >= 18 samples beyond it.  Query latency
# moves with host phases of seconds: at 14 s (210 queries) the run-to-run
# spread of p50 and p95 reached 0.19 and 0.24; at 24 s, in raw host time,
# 0.09-0.13 and 0.03-0.05.
MIN_FIXED_S = 24.0
CHUNK = 24  # batches per connection between drains (queue holds 64)
# Segment lengths as shares of --seconds.  The saturation segment is sized
# at this record rate, so at 15 s it runs about 5 s at 60k records/s.
FIXED_SHARE = 0.6
SATURATION_SHARE = 0.75
SATURATION_RECORDS_PER_S = 30_000
SETUP_BEFORE, SETUP_AFTER = 3, 2  # timed server starts around the run
POOL_PROGRAMS = (("compress", 1), ("gcc", 1), ("li", 1), ("go", 1))


# ----------------------------------------------------------------------
# Inputs.


def record_pool():
    """Paired samples from one detailed profile of each pool program."""
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig
    from repro.workloads.suite import suite_program

    pool = []
    for index, (name, scale) in enumerate(POOL_PROGRAMS):
        result = run_session(SessionSpec(
            program=suite_program(name, scale=scale),
            profile=ProfileMeConfig(mean_interval=100, paired=True,
                                    seed=11 + index)))
        pool.append([pair for pair in result.pairs
                     if pair.second is not None])
    return pool


RECORDS_PER_SAMPLE = 2  # the pool holds complete pairs only


def _shift(record, delta):
    return dataclasses.replace(record, fetch_cycle=record.fetch_cycle + delta,
                               done_cycle=record.done_cycle + delta)


def make_stream(pool, rng, records):
    """At least *records* members of seeded pool slices, ticks rising.

    Each pair is moved so its first member is fetched after the previous
    pair's last member: every shard then sees rising timestamps whatever
    the split, so no rollup bucket receives a straggler.
    """
    stream, total, tick = [], 0, 0
    while total < records:
        source = pool[rng.randrange(len(pool))]
        start = rng.randrange(len(source))
        for offset in range(rng.randint(64, 512)):
            pair = source[(start + offset) % len(source)]
            delta = tick - pair.first.fetch_cycle
            pair = dataclasses.replace(pair, first=_shift(pair.first, delta),
                                       second=_shift(pair.second, delta))
            stream.append(pair)
            total += RECORDS_PER_SAMPLE
            tick = max(pair.first.fetch_cycle,
                       pair.second.fetch_cycle) + rng.randint(1, 64)
    return stream


def batches(stream):
    return [stream[i:i + BATCH] for i in range(0, len(stream), BATCH)]


# ----------------------------------------------------------------------
# The server process.


class Server:
    """One ``repro serve`` subprocess, started and timed to its first stats."""

    def __init__(self, tag):
        from repro.service.client import ProfileClient

        hostproc.OUT.mkdir(exist_ok=True)
        port_file = hostproc.OUT / ("serve-%s.port" % tag)
        if port_file.exists():
            port_file.unlink()
        self.log = open(hostproc.OUT / ("serve-%s.log" % tag), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--shards", str(SHARDS),
             "--rollup-interval", str(ROLLUP_INTERVAL)],
            stdout=self.log, stderr=subprocess.STDOUT,
            env=hostproc.child_env(), cwd=str(hostproc.ROOT))
        try:
            while not port_file.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError("repro serve exited with %s"
                                       % self.proc.returncode)
                if time.perf_counter() - start > 60:
                    raise RuntimeError("repro serve did not start in 60 s")
                time.sleep(0.002)
            self.address = "127.0.0.1:%d" % int(port_file.read_text())
            with ProfileClient(self.address) as client:
                client.query("stats")
            self.setup_s = time.perf_counter() - start
            self.pin_workers()
        except BaseException:
            self.stop()
            raise

    def pin_workers(self):
        """Shard worker i runs on CPU i of ``HOST_CPUS``, modulo their count.

        Left to the scheduler, the two workers sometimes share one CPU
        for a whole run, which serializes every query's fold barrier:
        runs of identical code then differed twofold in query latency.
        The server's main process and the generator stay unpinned.
        """
        cpus = sorted(hostproc.HOST_CPUS)
        parents = hostproc.parent_map()
        workers = sorted(pid for pid, ppid in parents.items()
                         if ppid == self.proc.pid)
        for index, pid in enumerate(workers):
            os.sched_setaffinity(pid, {cpus[index % len(cpus)]})

    def peak_rss_mb(self):
        return hostproc.tree_peak_rss_kb(self.proc.pid) / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_server(tag, speed):
    """A running server plus the set-up times of SETUP_BEFORE starts, at
    nominal host speed (see ``hostspeed``)."""
    times = []
    for attempt in range(SETUP_BEFORE):
        before = speed.latest()
        server = Server("%s-%d" % (tag, attempt))
        times.append(nominal(server.setup_s, before, speed.sample()))
        if attempt < SETUP_BEFORE - 1:
            server.stop()
    return server, times


def time_server_starts(tag, count, speed):
    times = []
    for attempt in range(count):
        before = speed.latest()
        server = Server("%s-after-%d" % (tag, attempt))
        server.stop()
        times.append(nominal(server.setup_s, before, speed.sample()))
    return times


# ----------------------------------------------------------------------
# The generator.


class Generator:
    """One thread, two connections; runs both segments against a server.

    The saturation segment is reported at nominal host speed: the host
    speed is sampled before it and after every chunk, each time after a
    drain of both shards, since a busy server would slow the calibration
    loop and hide a slower server.  Query latencies stay in raw host time:
    they are spent mostly in the server's processes, on other CPUs than
    the calibration loop, and dividing them by its factor more than
    doubled their run-to-run spread (p50 0.09 -> 0.18, p95 0.04 -> 0.16
    over the same nine runs).
    """

    def __init__(self, address, stream, fixed_s, hot_pc, speed,
                 tracer=None):
        from repro.service.client import ProfileClient

        self.clients = [ProfileClient(address) for _ in range(SHARDS)]
        for client in self.clients:
            client.query("stats")  # connect: one connection per shard
        self.speed = speed
        self.tracer = tracer
        self.hot_pc = hot_pc
        self.batches = batches(stream)
        fixed_batches = int(fixed_s * FIXED_RATE / (2 * BATCH))
        self.fixed = self.batches[:fixed_batches]
        self.saturation = self.batches[fixed_batches:]
        self.fixed_s = fixed_s
        self.sent_records = 0
        self.query_due, self.query_reply = [], []
        self.late = []
        self.lag = []
        self.saturation_s = 0.0  # raw host seconds, speed samples excluded
        self.saturation_nominal_s = 0.0
        self.saturation_records = 0
        self.saturation_attributed_s = 0.0

    def close(self):
        for client in self.clients:
            client.close()

    def push(self, index, batch):
        self.clients[index % SHARDS].push(batch)
        self.sent_records += RECORDS_PER_SAMPLE * len(batch)

    def query(self, index, kind):
        client = self.clients[index % SHARDS]
        if kind == "top":
            return client.query("top", event="RETIRED", limit=10)
        if kind == "latency":
            return client.query("latency", pc=self.hot_pc)
        if kind == "epochs":
            return client.epochs(limit=16)
        return client.query(kind)

    def run_fixed(self):
        """Open loop: every push and query has a due time fixed up front."""
        from repro.errors import ReproError

        clock = time.perf_counter
        interval = len(self.fixed) and self.fixed_s / len(self.fixed)
        events = [(i * interval, 0, i) for i in range(len(self.fixed))]
        queries = int(self.fixed_s * QUERY_RATE)
        events += [((j + 0.5) / QUERY_RATE, 1, j) for j in range(queries)]
        events.sort()
        origin = clock() + 0.05
        for offset, is_query, index in events:
            due = origin + offset
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
            self.late.append(now - due)
            if not is_query:
                self.push(index, self.fixed[index])
                continue
            self.query_due.append(due)
            try:
                self.query(index, QUERY_KINDS[index % len(QUERY_KINDS)])
                self.query_reply.append(clock())
            except (ReproError, OSError):
                self.query_reply.append(None)

    def quiet_sample(self):
        """Drain both shards, then sample the host speed."""
        for client in self.clients:
            client.drain()
        return self.speed.sample()

    def query_latencies_ms(self):
        """Open-loop latencies of the fixed segment, in raw host time."""
        return [1000.0 * latency for latency
                in open_loop_latencies(self.query_due, self.query_reply)]

    def run_saturation(self):
        """Push as fast as the sockets accept; drain every CHUNK batches."""
        clock = time.perf_counter
        sent_before = self.sent_records
        before = self.quiet_sample()
        attributed_before = self.attributed_s()
        step = CHUNK * SHARDS
        for base in range(0, len(self.saturation), step):
            start = clock()
            for index, batch in enumerate(self.saturation[base:base + step]):
                self.push(index, batch)
            if self.tracer is not None:
                self.lag.append(self.shard_lag())
            for client in self.clients:
                client.drain()
            raw = clock() - start
            after = self.speed.sample()
            self.saturation_s += raw
            self.saturation_nominal_s += nominal(raw, before, after)
            before = after
        self.saturation_records = self.sent_records - sent_before
        self.saturation_attributed_s = self.attributed_s() - attributed_before

    def attributed_s(self):
        return self.tracer.attributed_s() if self.tracer is not None else 0.0

    def shard_lag(self):
        reply = self.clients[0].query("probes", pattern="service.shard*.lag")
        return max(probe["value"] for probe in reply["probes"].values())


def query_span(args, kwargs):
    command = args[1] if len(args) > 1 else kwargs.get("command")
    return "service.query.%s" % command


def trace_targets():
    from repro.service import client as client_module
    from repro.service.client import ProfileClient

    return [(ProfileClient, "push", "service.client.push"),
            (client_module, "plan_push_frames", "service.protocol.encode"),
            (ProfileClient, "drain", "service.client.drain"),
            (ProfileClient, "query", query_span)]


def ingest_once(stream, seconds, hot_pc, tag, tracer=None):
    """Start a server, run both segments, check, stop; returns measurements."""
    from repro.analysis.database import ProfileDatabase
    from repro.analysis.persistence import canonical_json

    fixed_s = max(MIN_FIXED_S, FIXED_SHARE * seconds)
    speed = HostSpeed()
    server, setup = start_server(tag, speed)
    try:
        generator = Generator(server.address, stream, fixed_s, hot_pc,
                              speed, tracer)
        try:
            generator.run_fixed()
            generator.run_saturation()
            export = generator.clients[0].query("export")
            stats = generator.clients[0].query("stats")
            probes = generator.clients[0].query("probes",
                                                pattern="service.*")
        finally:
            generator.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    # More starts after the run, so one slow stretch of the host does not
    # decide the set-up median.
    setup += time_server_starts(tag, SETUP_AFTER, speed)

    local = ProfileDatabase(rollup_interval=ROLLUP_INTERVAL)
    for sample in stream:
        local.add(sample)
    problems = []
    if canonical_json(export["database"]) != canonical_json(local.to_dict()):
        problems.append("served export differs from the in-process fold")
    folded = stats["stats"]["records"]
    dropped = stats["stats"]["dropped_records"]
    if folded + dropped != generator.sent_records:
        problems.append("folded %d + dropped %d != sent %d"
                        % (folded, dropped, generator.sent_records))
    return {"generator": generator, "setup": setup, "rss": rss,
            "speed": speed,
            "folded": folded, "dropped": dropped, "problems": problems,
            "stats": stats["stats"], "probes": probes["probes"],
            "export": export["database"], "local": local}


def outcome_counts(measured):
    """(attempted, failed) over pushed records and fixed-segment queries."""
    generator = measured["generator"]
    queries = len(generator.query_reply)
    unanswered = sum(1 for reply in generator.query_reply if reply is None)
    attempted = generator.sent_records + queries
    if measured["problems"]:
        return attempted, attempted  # a failed check fails every operation
    return attempted, measured["dropped"] + unanswered


def stream_inputs(seed, seconds):
    pool = record_pool()
    rng = random.Random(seed)
    fixed_s = max(MIN_FIXED_S, FIXED_SHARE * seconds)
    records = int(fixed_s * FIXED_RATE
                  + SATURATION_SHARE * seconds * SATURATION_RECORDS_PER_S)
    stream = make_stream(pool, rng, records)
    counts = {}
    for pair in stream:
        counts[pair.first.pc] = counts.get(pair.first.pc, 0) + 1
    hot_pc = max(sorted(counts), key=counts.get)
    return stream, hot_pc


def saturation_rate(generator):
    """Records per second of the saturation segment, at nominal speed."""
    return generator.saturation_records / generator.saturation_nominal_s


def run(seed, seconds, trace):
    stream, hot_pc = stream_inputs(seed, seconds)
    if trace:
        return traced_run(stream, hot_pc, seconds, seed)
    measured = ingest_once(stream, seconds, hot_pc, "run")
    generator = measured["generator"]
    latencies_ms = generator.query_latencies_ms()
    supported = highest_supported_percentile(len(latencies_ms))
    if supported is None or supported < 95.0:
        raise RuntimeError("%d queries cannot support a p95"
                           % len(latencies_ms))
    attempted, failed = outcome_counts(measured)
    notes = list(measured["problems"])
    notes.append(
        "fixed segment: %d records in %d pushes at %d records/s, %d queries "
        "at %.0f/s (highest supported percentile p%g), query p50 %.3f ms; "
        "generator late p95 %.3f ms"
        % (RECORDS_PER_SAMPLE * sum(len(batch) for batch in generator.fixed),
           len(generator.fixed), FIXED_RATE, len(latencies_ms), QUERY_RATE,
           supported, percentile(latencies_ms, 50),
           1000.0 * percentile(generator.late, 95)))
    notes.append(
        "saturation: %d records in %.3f s raw host time (%.0f records/s); "
        "host speed factor median %.3f over %d samples"
        % (generator.saturation_records, generator.saturation_s,
           generator.saturation_records / generator.saturation_s,
           median(measured["speed"].factors),
           len(measured["speed"].factors)))
    metrics = {
        "throughput_per_s": saturation_rate(generator),
        "latency_ms": percentile(latencies_ms, 95),
        "quality": on_time_share(latencies_ms, QUERY_DEADLINE_MS),
        "setup_s": median(measured["setup"]),
        "peak_rss_mb": measured["rss"],
        "ok_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics, notes


# ----------------------------------------------------------------------
# Traced run.


def replay(generator):
    """Re-fold the run's own frames in-process, per shard, then merge,
    rank and export the shard snapshots; returns timings and the export."""
    from repro.analysis.database import ProfileDatabase
    from repro.analysis.persistence import database_to_dict
    from repro.events import Event
    from repro.service.fold import ShardFolder
    from repro.service.protocol import plan_push_frames, split_frames

    payloads = [[] for _ in range(SHARDS)]
    for segment in (generator.fixed, generator.saturation):
        for index, batch in enumerate(segment):
            for frame, _ in plan_push_frames(batch):
                frames, _ = split_frames(frame)
                payloads[index % SHARDS].extend(f["payload"] for f in frames)
    folders = [ShardFolder(rollup_interval=ROLLUP_INTERVAL)
               for _ in range(SHARDS)]
    records = 0
    start = time.perf_counter()
    for folder, shard_payloads in zip(folders, payloads):
        for payload in shard_payloads:
            records += folder.fold_payload(payload)
        folder.flush()
    fold_s = time.perf_counter() - start
    shards = [folder.snapshot_database() for folder in folders]

    start = time.perf_counter()
    merged = ProfileDatabase(rollup_interval=ROLLUP_INTERVAL)
    for database in shards:
        merged.merge(database)
    merge_s = time.perf_counter() - start
    start = time.perf_counter()
    merged.top_by_event(Event.RETIRED, 10)
    top_s = time.perf_counter() - start
    start = time.perf_counter()
    document = database_to_dict(merged)
    export_s = time.perf_counter() - start
    return {"fold_records_per_s": records / fold_s, "merge_s": merge_s,
            "top_s": top_s, "export_s": export_s, "document": document}


def traced_run(stream, hot_pc, seconds, seed):
    from repro.analysis.persistence import canonical_json

    plain = ingest_once(stream, seconds, hot_pc, "plain")
    tracer = Tracer()
    with instrumented(tracer, trace_targets()):
        traced = ingest_once(stream, seconds, hot_pc, "traced", tracer)
    replayed = replay(traced["generator"])

    attempted = failed = 0
    notes = []
    for measured in (plain, traced):
        runs, fails = outcome_counts(measured)
        attempted += runs
        failed += fails
        notes.extend(measured["problems"])
    if canonical_json(replayed["document"]) != canonical_json(
            traced["export"]):
        failed += 1
        notes.append("replayed shard fold differs from the served export")

    generator = traced["generator"]
    pushes = tracer.count["service.client.push"]

    def query_ms(kind):
        name = "service.query.%s" % kind
        return 1000.0 * tracer.total_s[name] / max(tracer.count[name], 1)

    plain_rate = saturation_rate(plain["generator"])
    traced_rate = saturation_rate(generator)
    probes = traced["probes"]
    metrics = {
        "service.protocol.encode_s": tracer.self_s["service.protocol.encode"],
        "service.client.push_s": tracer.self_s["service.client.push"],
        "service.client.drain_ms": 1000.0 * tracer.total_s[
            "service.client.drain"] / max(tracer.count[
                "service.client.drain"], 1),
        "service.fold.records_per_s": replayed["fold_records_per_s"],
        "service.query.top_ms": query_ms("top"),
        "service.query.latency_ms": query_ms("latency"),
        "service.query.epochs_ms": query_ms("epochs"),
        "service.query.stats_ms": query_ms("stats"),
        "service.query.export_ms": query_ms("export"),
        "analysis.database.merge_s": replayed["merge_s"],
        "analysis.database.top_s": replayed["top_s"],
        "analysis.persistence.export_s": replayed["export_s"],
        "service.records": probes["service.records"]["value"],
        "service.dropped_records": probes["service.dropped_records"]["value"],
        "service.fold_errors": probes["service.fold_errors"]["value"],
        "service.worker_restarts":
            probes["service.worker_restarts"]["value"],
        "service.shard.lag_max": max(generator.lag or [0]),
        "bench.generator_late_p95_ms":
            1000.0 * percentile(generator.late, 95),
        # The saturation segment is busy end to end; what its client-side
        # spans leave unattributed is the generator's own bookkeeping.
        "trace.residual_frac": 1.0 - (generator.saturation_attributed_s
                                      / generator.saturation_s),
        "trace.overhead_frac": plain_rate / traced_rate - 1,
        "bench.host_speed_factor": median(traced["speed"].factors),
    }
    hostproc.OUT.mkdir(exist_ok=True)
    path = hostproc.OUT / ("trace-ingest-query-seed%d.json" % seed)
    tracer.write(path)
    notes.append("traced %d pushes; saturation %.0f records/s traced vs "
                 "%.0f untraced (nominal host speed); layer times are raw "
                 "host time; trace in %s"
                 % (pushes, traced_rate, plain_rate,
                    path.relative_to(hostproc.ROOT)))
    return attempted, failed, metrics, notes
