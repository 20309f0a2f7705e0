"""Asyncio ingestion server: the always-on half of continuous profiling.

DCPI's daemon accepts sample batches from every CPU, folds them into a
shared on-disk profile database, and serves the analysis tools.
:class:`ProfileServer` is that daemon for this reproduction:

* **Many producers.**  One asyncio TCP server; each connection is a
  producer (a ``repro push`` run, one sweep worker process, a spill
  replay) or a query client — the protocol is the same socket: binary
  data frames (``push``, ``probe_push``) beside JSON control frames.

* **Worker processes.**  The event loop only reads frames, routes, and
  accounts; the CPU-heavy decode+fold runs in one dedicated worker
  process per shard (:mod:`repro.service.workers`), fed over bounded
  queues.  A crashed worker is detected, restarted from its last
  checkpoint, and everything un-checkpointed is accounted as dropped —
  never double-counted.

* **Bounded queues, explicit backpressure, loss accounting.**  TCP flow
  control is the smooth backpressure path; when a producer still
  outruns the folder, the batch is *dropped and counted* — never
  buffered without bound — mirroring the paper's sampling hardware,
  which sheds selections while the profile registers are busy and
  exposes the loss (``dropped_busy``) so software can calibrate.  Drop
  counters ride on every query response.

* **Shards.**  Connections are assigned to shard workers round-robin;
  a query merges the shard databases exactly —
  :meth:`ProfileDatabase.merge` is associative and commutative over its
  counters, so the merged view is independent of arrival interleaving
  (address retention excepted, see docs).

* **Snapshots.**  A background task periodically collects the shards
  and persists the merge through :func:`repro.analysis.persistence.
  save_database` (atomic temp-file + rename); a final snapshot is
  written on shutdown.  A crashed server therefore leaves a complete,
  loadable profile no older than one snapshot interval.

For tests, benchmarks, and in-process embedding, :class:`ServerThread`
runs the server on a background event loop with a blocking start/stop
interface.
"""

import asyncio
import dataclasses
import threading
from dataclasses import dataclass

from repro.analysis.database import AGGREGATED_EVENTS, ProfileDatabase
from repro.analysis.persistence import database_from_dict, save_database
from repro.errors import AnalysisError, ProtocolError, ServiceError
from repro.events import Event
from repro.service.protocol import (MAX_FRAME_BYTES, WIRE_VERSION,
                                    error_frame, ok_frame, read_frame,
                                    write_frame)
from repro.service.workers import ProcessShardWorker


@dataclass
class ServerStats:
    """Ingestion/loss accounting, reported on every query response.

    Parent-owned counters are live; worker-owned ones (``records``,
    ``dropped_*``, ``fold_errors``, ``worker_restarts``) are refreshed
    from the shard workers whenever a barrier or query touches them.
    """

    connections: int = 0
    batches: int = 0  # accepted (enqueued) sample batches
    records: int = 0  # records folded into a shard
    db_merges: int = 0  # push_db documents merged
    probe_pushes: int = 0  # probe-registry reading sets accepted
    dropped_batches: int = 0  # batches shed (full queue or worker crash)
    dropped_records: int = 0  # records inside those batches
    replay_dropped: int = 0  # batches producers discarded on spill replay
    queries: int = 0
    protocol_errors: int = 0
    fold_errors: int = 0  # accepted frames whose payload failed to fold
    worker_restarts: int = 0
    snapshots: int = 0
    evicted_samples: int = 0  # samples aged out by bucket retention

    def loss(self):
        return {"dropped_batches": self.dropped_batches,
                "dropped_records": self.dropped_records}


class ProfileServer:
    """Continuous-profiling ingestion + query server."""

    def __init__(self, host="127.0.0.1", port=0, shards=1, queue_size=64,
                 keep_addresses=0, snapshot_path=None,
                 snapshot_interval=30.0, max_frame_bytes=MAX_FRAME_BYTES,
                 fold_delay=0.0, rollup_interval=0, retain_buckets=0):
        """*queue_size*: batches buffered per shard before drops begin.
        *fold_delay*: artificial per-batch folding cost in seconds — the
        overload knob the backpressure and fault-injection tests turn to
        make producers outrun the folder deterministically.
        *keep_addresses*/*rollup_interval*/*retain_buckets*: the shard
        database settings (see
        :class:`~repro.analysis.database.ProfileDatabase`): every shard
        worker starts from an empty database built with them.
        Evictions are accounted per shard and reported on every stats
        query.
        """
        if shards < 1:
            raise ServiceError("shards must be >= 1, got %d" % shards)
        if queue_size < 1:
            raise ServiceError("queue_size must be >= 1, got %d" % queue_size)
        try:
            self.seed_database = ProfileDatabase(
                keep_addresses=keep_addresses,
                rollup_interval=rollup_interval,
                retain_buckets=retain_buckets)
        except AnalysisError as exc:
            raise ServiceError(str(exc)) from exc
        self.host = host
        self.port = port
        self.shard_count = shards
        self.queue_size = queue_size
        self.snapshot_path = snapshot_path
        self.snapshot_interval = snapshot_interval
        self.max_frame_bytes = max_frame_bytes
        self.fold_delay = fold_delay
        self.stats = ServerStats()
        self.workers = []  # created in start() (they need the loop)
        self._next_shard = 0
        self._server = None
        self._snapshot_task = None
        self._probe_registry = None  # built lazily (probe_registry())

    # ------------------------------------------------------------------
    # Introspection.

    def probe_registry(self):
        """The server's own ``service.*`` probe subtree, built lazily.

        ``service.<stat>`` mirrors every :class:`ServerStats` counter;
        ``service.shard<i>.samples`` / ``service.shard<i>.lag`` expose
        per-shard fold progress and backlog, and ``service.worker<i>.*``
        the per-worker delivery stats (lag, drops, restarts, folded
        records, fold errors).  Served by the ``probes`` query, so
        `repro probes list --address` works against a live server.
        """
        if self._probe_registry is None:
            from repro.probes.registry import ProbeRegistry
            self._probe_registry = ProbeRegistry()
            self._register_probes(self._probe_registry)
        return self._probe_registry

    def _register_probes(self, registry):
        for stats_field in dataclasses.fields(ServerStats):
            registry.register(
                "service.%s" % stats_field.name,
                lambda f=stats_field.name: self._stat_value(f),
                kind="counter", unit="events",
                description="ServerStats.%s" % stats_field.name)
        for index in range(self.shard_count):
            registry.register(
                "service.shard%d.samples" % index,
                lambda i=index: self._worker(i).total_samples,
                kind="counter", unit="samples",
                description="samples folded into shard %d" % index)
            registry.register(
                "service.shard%d.lag" % index,
                lambda i=index: self._worker(i).queue_depth(),
                kind="gauge", unit="payloads",
                description="payloads enqueued for shard %d but not yet "
                            "folded" % index)
            registry.register(
                "service.shard%d.buckets" % index,
                lambda i=index: self._worker(i).bucket_count,
                kind="gauge", unit="buckets",
                description="live rollup buckets held by shard %d" % index)
            registry.register(
                "service.shard%d.evicted_samples" % index,
                lambda i=index: self._worker(i).evicted_samples,
                kind="counter", unit="samples",
                description="samples aged out of shard %d by bucket "
                            "retention" % index)
            for name, reader, kind in (
                    ("lag", lambda w: w.queue_depth(), "gauge"),
                    ("records", lambda w: w.counters["records"], "counter"),
                    ("dropped_batches", lambda w: w.dropped_batches,
                     "counter"),
                    ("dropped_records", lambda w: w.dropped_records,
                     "counter"),
                    ("fold_errors", lambda w: w.fold_error_batches,
                     "counter"),
                    ("restarts", lambda w: w.restarts, "counter")):
                registry.register(
                    "service.worker%d.%s" % (index, name),
                    lambda i=index, r=reader: r(self._worker(i)),
                    kind=kind, unit="events",
                    description="shard worker %d %s" % (index, name))

    def _worker(self, index):
        if not self.workers:
            raise ServiceError("server not started")
        return self.workers[index]

    def _stat_value(self, name):
        if name in ("records", "dropped_batches", "dropped_records",
                    "fold_errors", "worker_restarts", "evicted_samples"):
            self._refresh_stats()
        return getattr(self.stats, name)

    def _refresh_stats(self):
        """Pull the worker-owned counters into the stats dataclass."""
        workers = self.workers
        self.stats.records = sum(w.counters["records"] for w in workers)
        self.stats.dropped_batches = sum(w.dropped_batches for w in workers)
        self.stats.dropped_records = sum(w.dropped_records for w in workers)
        self.stats.fold_errors = sum(w.fold_error_batches for w in workers)
        self.stats.worker_restarts = sum(w.restarts for w in workers)
        self.stats.evicted_samples = sum(w.evicted_samples for w in workers)

    def _loss(self):
        self._refresh_stats()
        return self.stats.loss()

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self):
        """Bind, spawn the shard workers, start accepting."""
        loop = asyncio.get_event_loop()
        self.workers = [
            ProcessShardWorker(index, self.seed_database,
                               queue_size=self.queue_size,
                               fold_delay=self.fold_delay, loop=loop)
            for index in range(self.shard_count)]
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.snapshot_path and self.snapshot_interval > 0:
            self._snapshot_task = asyncio.ensure_future(self._snapshot_loop())
        return self

    async def serve_forever(self):
        await self._server.serve_forever()

    async def stop(self):
        """Stop accepting, write a final snapshot, stop the workers."""
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.snapshot_path:
            await self.write_snapshot()
        for worker in self.workers:
            await worker.stop()

    # ------------------------------------------------------------------
    # Aggregation views.

    async def collect_database(self):
        """All shards folded into one database (the query/export view).

        A full barrier: every batch accepted before this call is folded
        and visible in the result.
        """
        databases = await asyncio.gather(
            *(worker.snap_retry() for worker in self.workers))
        self._refresh_stats()
        # The merged view aligns shard buckets on (level, start); it
        # takes the retention cap only after merging, so it never
        # re-evicts (the shards did) yet its export carries the cap.
        seed = self.seed_database
        merged = ProfileDatabase(keep_addresses=seed.keep_addresses,
                                 rollup_interval=seed.rollup_interval)
        for database in databases:
            merged.merge(database)
        merged.retain_buckets = seed.retain_buckets
        return merged, databases

    async def write_snapshot(self):
        merged, _ = await self.collect_database()
        save_database(merged, self.snapshot_path)
        self.stats.snapshots += 1

    async def _snapshot_loop(self):
        while True:
            await asyncio.sleep(self.snapshot_interval)
            await self.write_snapshot()

    # ------------------------------------------------------------------
    # Per-connection ingest.

    async def _handle_connection(self, reader, writer):
        self.stats.connections += 1
        worker = self.workers[self._next_shard % len(self.workers)]
        self._next_shard += 1
        try:
            if await self._handshake(reader, writer):
                await self._serve_frames(reader, writer, worker)
        except (ProtocolError, ConnectionError) as exc:
            self.stats.protocol_errors += 1
            await self._try_send(writer, error_frame(str(exc)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, reader, writer):
        frame = await read_frame(reader, self.max_frame_bytes)
        if frame is None:
            return False
        if frame.get("kind") != "hello":
            raise ProtocolError("expected hello, got %r"
                                % (frame.get("kind"),))
        if frame.get("version") != WIRE_VERSION:
            await self._try_send(writer, error_frame(
                "protocol version %r unsupported (server speaks %d)"
                % (frame.get("version"), WIRE_VERSION)))
            return False
        await write_frame(writer, ok_frame(version=WIRE_VERSION))
        return True

    async def _serve_frames(self, reader, writer, worker):
        while True:
            frame = await read_frame(reader, self.max_frame_bytes)
            if frame is None:
                return
            kind = frame.get("kind")
            if kind == "push":
                await self._ingest_push(writer, worker, frame)
            elif kind == "push_db":
                await self._ingest_push_db(writer, worker, frame)
            elif kind == "probe_push":
                await self._ingest_probe_push(writer, worker, frame)
            elif kind == "sync":
                # Barrier: ack only after everything this connection's
                # shard accepted has folded (FIFO queue => superset of
                # this connection's own batches).
                await worker.snap_retry()
                await write_frame(writer, ok_frame(**self._loss()))
            elif kind == "report":
                # Producer-side losses the server never saw happen
                # (spill-replay discards); folded into the shared stats
                # so `repro query stats` shows end-to-end loss.
                counters = frame.get("counters") or {}
                self.stats.replay_dropped += int(
                    counters.get("replay_dropped", 0))
            elif kind == "query":
                self.stats.queries += 1
                await write_frame(writer, await self._query(
                    frame.get("command"), frame.get("params") or {}))
            elif kind == "bye":
                return
            else:
                raise ProtocolError("unknown frame kind %r" % (kind,))

    async def _ingest_push(self, writer, worker, frame):
        # CRC already verified, payload not yet decoded — that happens
        # in the worker.  The header's record count is what a shed or
        # crashed payload costs.
        records = frame["count"]
        accepted = worker.offer(("payload", frame["payload"], records),
                                batches=1, records=records)
        if accepted:
            self.stats.batches += 1
        if frame.get("sync"):
            await write_frame(writer, ok_frame(dropped=not accepted,
                                               **self._loss()))

    async def _ingest_push_db(self, writer, worker, frame):
        # Aggregates are precious (one document may stand for a whole
        # cached sweep run): block rather than shed.
        document = frame.get("database")
        try:
            parsed = database_from_dict(document)
        except Exception as exc:
            raise ProtocolError("push_db document does not parse: %s"
                                % (exc,)) from exc
        await worker.put_blocking(("db", document), batches=1,
                                  records=parsed.total_samples)
        self.stats.db_merges += 1
        await write_frame(writer, ok_frame(**self._loss()))

    async def _ingest_probe_push(self, writer, worker, frame):
        """Shed-don't-block, exactly like sample pushes: a probe reading
        is one point on a trend line, cheaper to lose than to let an
        overloaded folder stall the producing simulation."""
        accepted = worker.offer(("probe_payload", frame["payload"]),
                                batches=1, records=0)
        if accepted:
            self.stats.probe_pushes += 1
        if frame.get("sync"):
            await write_frame(writer, ok_frame(dropped=not accepted,
                                               **self._loss()))

    async def _try_send(self, writer, frame):
        try:
            await write_frame(writer, frame)
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Queries (all answered from the merged shard view, after a fold
    # barrier, so a query sees everything accepted before it).

    async def _query(self, command, params):
        try:
            if command == "stats":
                return await self._query_stats()
            if command == "top":
                return await self._query_top(params)
            if command == "latency":
                return await self._query_latency(params)
            if command == "convergence":
                return await self._query_convergence(params)
            if command == "epochs":
                return await self._query_epochs(params)
            if command == "export":
                merged, _ = await self.collect_database()
                return ok_frame(database=merged.to_dict(),
                                **self.stats.loss())
            if command == "probes":
                return await self._query_probes(params)
        except (KeyError, TypeError, ValueError) as exc:
            return error_frame("bad query parameters: %s" % (exc,))
        return error_frame("unknown query command %r" % (command,))

    async def _query_stats(self):
        merged, databases = await self.collect_database()
        return ok_frame(
            stats=dataclasses.asdict(self.stats),
            shards=[database.total_samples for database in databases],
            shard_evicted=[database.evicted_samples
                           for database in databases],
            total_samples=merged.total_samples,
            evicted_samples=merged.evicted_samples,
            static_instructions=len(merged.per_pc),
            **self.stats.loss())

    async def _query_epochs(self, params):
        """Rollup-bucket state of the merged view: one row per live
        bucket/epoch, oldest first, optionally clipped to a
        ``[since, until)`` tick range."""
        since = params.get("since")
        until = params.get("until")
        limit = params.get("limit")
        merged, databases = await self.collect_database()
        epochs = merged.epoch_summaries()
        if since is not None:
            since = int(since)
            epochs = [row for row in epochs
                      if row["start"] + row["span"] > since]
        if until is not None:
            until = int(until)
            epochs = [row for row in epochs if row["start"] < until]
        if limit is not None:
            limit = int(limit)
            if limit < 1:
                raise ValueError("limit must be >= 1, got %d" % limit)
            epochs = epochs[-limit:]  # the newest buckets matter most
        return ok_frame(
            epochs=epochs,
            rollup_interval=self.seed_database.rollup_interval,
            retain_buckets=self.seed_database.retain_buckets,
            total_samples=merged.total_samples,
            evicted_samples=merged.evicted_samples,
            shard_evicted=[database.evicted_samples
                           for database in databases],
            **self.stats.loss())

    async def _query_probes(self, params):
        """The server's own registry snapshot plus streamed series.

        ``probes`` answers two questions at once: what the *server*
        looks like right now (``service.*`` snapshot), and what the
        producers have been streaming (per-probe ``ProbeSeries``
        aggregates merged across shards, same wire shape as the
        document form: [count, total, min, max, last, last_tick]).
        """
        import fnmatch

        pattern = params.get("pattern") or None
        merged, _ = await self.collect_database()
        registry = self.probe_registry()
        registry.invalidate()
        series = merged.probes
        if pattern and pattern != "*":
            series = {name: s for name, s in series.items()
                      if fnmatch.fnmatchcase(name, pattern)}
        return ok_frame(
            probes=registry.snapshot(pattern, refresh=True),
            series={name: [s.count, s.total, s.minimum, s.maximum,
                           s.last, s.last_tick]
                    for name, s in series.items()},
            **self.stats.loss())

    def _event_flag(self, name):
        try:
            flag = Event[name]
        except KeyError:
            raise ValueError("unknown event %r (one of %s)"
                             % (name, ", ".join(e.name
                                                for e in AGGREGATED_EVENTS)))
        return flag

    async def _query_top(self, params):
        flag = self._event_flag(params.get("event", "RETIRED"))
        limit = int(params.get("limit", 10))
        merged, _ = await self.collect_database()
        return ok_frame(
            event=flag.name,
            top=[[pc, count]
                 for pc, count in merged.top_by_event(flag, limit)],
            total_samples=merged.total_samples,
            **self.stats.loss())

    async def _query_latency(self, params):
        pc = int(params["pc"])
        merged, _ = await self.collect_database()
        profile = merged.profile(pc)
        if profile is None:
            return ok_frame(pc=pc, found=False, **self.stats.loss())
        return ok_frame(
            pc=pc, found=True, samples=profile.samples,
            latencies={name: [agg.count, agg.total, agg.total_sq]
                       for name, agg in profile.latencies.items()},
            **self.stats.loss())

    async def _query_convergence(self, params):
        """Per-hot-PC statistical maturity: the 1/sqrt(k) error envelope.

        The section 5.1 estimator's relative error for a PC with k
        matching samples is ~1/sqrt(k); a continuously-profiled fleet
        watches this shrink to decide when a profile is actionable.
        """
        from repro.analysis.estimators import relative_error_envelope

        flag = self._event_flag(params.get("event", "RETIRED"))
        limit = int(params.get("limit", 10))
        merged, _ = await self.collect_database()
        rows = []
        for pc, count in merged.top_by_event(flag, limit):
            rows.append({"pc": pc, "samples": count,
                         "envelope": (relative_error_envelope(count)
                                      if count else None)})
        return ok_frame(event=flag.name, convergence=rows,
                        total_samples=merged.total_samples,
                        **self.stats.loss())


# ----------------------------------------------------------------------
# Background-thread embedding (tests, benchmarks, in-process use).


class ServerThread:
    """Run a :class:`ProfileServer` on a background event loop.

    ``start()`` blocks until the port is bound (or raises the startup
    error); ``stop()`` shuts the loop down and joins the thread.  Usable
    as a context manager.
    """

    def __init__(self, **kwargs):
        self.server = ProfileServer(**kwargs)
        self._thread = None
        self._loop = None
        self._stop_event = None
        self._ready = threading.Event()
        self._error = None

    @property
    def address(self):
        return "%s:%d" % (self.server.host, self.server.port)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ServiceError("profile server did not start in time")
        if self._error is not None:
            raise ServiceError("profile server failed to start: %s"
                               % (self._error,))
        return self.server.host, self.server.port

    def stop(self):
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _run(self):
        try:
            asyncio.run(self._main())
        except Exception as exc:  # startup failures surface in start()
            self._error = exc
            self._ready.set()

    async def _main(self):
        self._loop = asyncio.get_event_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.stop()
