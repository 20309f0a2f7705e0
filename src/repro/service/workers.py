"""Shard workers: every shard folds in its own worker process.

The server's event loop only reads frames, routes payloads and
accounts; each shard's CPU-heavy decode+fold runs in
:class:`~repro.service.fold.ShardFolder` inside a dedicated **worker
process** fed over a bounded ``multiprocessing.Queue``, so folding never
competes with frame reading for the event loop's interpreter.

Topology (one per shard)::

    event loop ── bounded mp.Queue ──> worker process (ShardFolder)
        ^                                   │
        └── reader thread <── result pipe ──┘

* **Commands** flow parent -> worker through the queue, in FIFO order:
  fold commands (``payload``/``probe_payload``/``db``) and ``snap``
  barrier tokens.  The queue is bounded: a full queue sheds the command
  at the parent (*accounted*, never buffered without bound), except
  documents/aggregates which block instead.

* **Replies** flow worker -> parent through the pipe; a daemon reader
  thread per worker hands them to the event loop with
  ``call_soon_threadsafe``.  A ``snap`` reply is the worker's whole
  state — counters plus its pickled shard database — and doubles as the
  **checkpoint** for crash recovery.

* **Crash recovery without double-counting.**  The parent keeps, per
  worker, the last checkpoint and a backlog of commands enqueued since
  it.  When the reader thread sees the pipe close (worker killed, OOM,
  or crashed), the parent counts the whole backlog as dropped, restarts
  the process seeded from the checkpoint, and resets the sequence
  numbers.  Because the queue is FIFO and the checkpoint is a barrier
  token, "everything after the last checkpoint" is *exactly* the set of
  records whose effect on the database was lost — folded-but-not-yet-
  checkpointed work is discarded with the dead process's memory, so it
  is accounted as dropped, and re-seeding from the checkpoint cannot
  replay anything twice.  Exports after a crash therefore remain
  byte-identical to an in-process fold of (everything checkpointed +
  everything folded after the restart).
"""

import asyncio
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time

from repro.errors import ProtocolError, ServiceError
from repro.service.fold import ShardFolder

_COUNTER_NAMES = ("records", "batches_folded", "db_merges", "probe_pushes",
                  "fold_errors")


class WorkerRestarted(ServiceError):
    """A barrier was interrupted by the worker dying; retry reaches the
    restarted worker."""


def _fresh_counters():
    return {name: 0 for name in _COUNTER_NAMES}


def _apply_fold_command(folder, counters, command, fold_delay):
    """Execute one fold command in the worker process."""
    if fold_delay:
        time.sleep(fold_delay)
    op = command[0]
    if op == "payload":
        counters["records"] += folder.fold_payload(command[1])
        counters["batches_folded"] += 1
    elif op == "probe_payload":
        folder.fold_probe_payload(command[1])
        counters["probe_pushes"] += 1
    elif op == "db":
        folder.merge_document(command[1])
        counters["db_merges"] += 1
    else:
        raise ProtocolError("unknown worker command %r" % (op,))


def _worker_main(command_queue, result_conn, keep_addresses, fold_delay,
                 seed_blob, rollup_interval=0, retain_buckets=0):
    """Worker process entry point: fold until told to stop."""
    folder = ShardFolder(keep_addresses=keep_addresses,
                         rollup_interval=rollup_interval,
                         retain_buckets=retain_buckets)
    counters = _fresh_counters()
    if seed_blob is not None:
        database, counters = pickle.loads(seed_blob)
        folder.database = database
    processed = 0
    while True:
        command = command_queue.get()
        op = command[0]
        if op == "snap":
            database = folder.snapshot_database()
            blob = pickle.dumps((database, dict(counters)),
                                protocol=pickle.HIGHEST_PROTOCOL)
            result_conn.send(("snap", command[1], dict(counters),
                              processed, blob))
            continue
        if op == "stop":
            result_conn.close()
            return
        processed += 1
        try:
            _apply_fold_command(folder, counters, command, fold_delay)
        except ProtocolError as exc:
            # A frame that passed the CRC but carried malformed records
            # (or an unparseable document): one typed error, one
            # accounted drop, fold state untouched (folds are atomic).
            counters["fold_errors"] += 1
            records = command[-1] if isinstance(command[-1], int) else 0
            result_conn.send(("folderr", str(exc), records))


class ProcessShardWorker:
    """Parent-side handle for one shard's worker process."""

    def __init__(self, index, keep_addresses=0, queue_size=64,
                 fold_delay=0.0, loop=None, rollup_interval=0,
                 retain_buckets=0):
        self.index = index
        self.keep_addresses = keep_addresses
        self.queue_size = queue_size
        self.fold_delay = fold_delay
        self.rollup_interval = rollup_interval
        self.retain_buckets = retain_buckets
        self.loop = loop or asyncio.get_event_loop()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        # Parent-side accounting (survives worker restarts).
        self.accepted_batches = 0
        self.dropped_batches = 0
        self.dropped_records = 0
        self.fold_error_batches = 0
        self.fold_error_records = 0
        self.restarts = 0
        self.join_errors = 0  # process.join failures during restart
        self.counters = _fresh_counters()  # last known worker counters
        self.total_samples = 0  # last known shard sample count
        self.evicted_samples = 0  # last known shard eviction count
        self.bucket_count = 0  # last known live rollup buckets
        self._checkpoint = None  # pickled (database, counters) or None
        self._seq = 0  # record-bearing commands enqueued this process
        self._backlog = []  # [(seq, batches, records)] since checkpoint
        self._pending = {}  # snap token -> Future
        self._next_token = 0
        self._stopping = False
        self.process = None
        self._queue = None
        self._conn = None
        self._spawn(seed_blob=None)

    # ------------------------------------------------------------------
    # Process lifecycle.

    def _spawn(self, seed_blob):
        self._queue = self._ctx.Queue(maxsize=self.queue_size)
        self._conn, child_conn = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(self._queue, child_conn, self.keep_addresses,
                  self.fold_delay, seed_blob, self.rollup_interval,
                  self.retain_buckets),
            daemon=True)
        self.process.start()
        child_conn.close()
        self._seq = 0
        self._backlog = []
        reader = threading.Thread(target=self._read_results,
                                  args=(self._conn,), daemon=True)
        reader.start()

    def _read_results(self, conn):
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            self.loop.call_soon_threadsafe(self._on_message, message)
        # The pipe closed: clean stop or a dead worker; the event loop
        # decides which.
        try:
            self.loop.call_soon_threadsafe(self._on_pipe_closed, conn)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _on_message(self, message):
        kind = message[0]
        if kind == "snap":
            _, token, counters, processed, blob = message
            self.counters = counters
            self._checkpoint = blob
            self._backlog = [entry for entry in self._backlog
                             if entry[0] > processed]
            future = self._pending.pop(token, None)
            if future is not None and not future.done():
                future.set_result(blob)
        elif kind == "folderr":
            _, _message, records = message
            self.fold_error_batches += 1
            self.fold_error_records += records

    def _on_pipe_closed(self, conn):
        if self._stopping or conn is not self._conn:
            return
        # Everything enqueued since the last checkpoint died with the
        # process.
        self._drop_backlog()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(WorkerRestarted(
                    "shard worker %d died; restarted from its last "
                    "checkpoint" % self.index))
        self._pending.clear()
        self.restarts += 1
        if self._checkpoint is not None:
            _db, counters = pickle.loads(self._checkpoint)
            self.counters = dict(counters)
        else:
            self.counters = _fresh_counters()
        try:
            self.process.join(timeout=1.0)
        except (OSError, AssertionError):
            # join() can only fail like this for an already-reaped child
            # (OSError) or a join from a non-parent (AssertionError in
            # some start methods); no fold state rides on it, but count
            # it so a worker that repeatedly fails to reap is visible.
            self.join_errors += 1
        self._spawn(seed_blob=self._checkpoint)

    def _drop_backlog(self):
        """Account every command enqueued since the last checkpoint as
        dropped, exactly once: a dead worker lost it, and a stop that
        never reached the worker leaves it unfolded."""
        for _seq, batches, records in self._backlog:
            self.dropped_batches += batches
            self.dropped_records += records
        self._backlog = []

    async def stop(self):
        self._stopping = True
        delivered = True
        try:
            self._queue.put_nowait(("stop",))
        except (queue_module.Full, ValueError, OSError, AssertionError):
            # Full queue or a queue closed mid-restart: the stop token
            # never reaches the worker, so it will be terminated below
            # with its backlog unfolded.  `_stopping` suppresses the
            # crash-recovery path, so the backlog must be accounted
            # here — previously it vanished without a trace.
            delivered = False
        process = self.process
        deadline = time.monotonic() + 2.0
        while process.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if process.is_alive():
            process.terminate()
            delivered = False
        if not delivered:
            self._drop_backlog()
        self._queue.close()

    # ------------------------------------------------------------------
    # Command submission (event-loop thread only, to preserve ordering).

    def offer(self, command, batches=1, records=0):
        """Enqueue without blocking; shed (False) when the queue is full.

        The caller accounts accepted batches; sheds are accounted here.
        """
        try:
            self._queue.put_nowait(command)
        except Exception:  # queue.Full, or a closed queue mid-restart
            self.dropped_batches += batches
            self.dropped_records += records
            return False
        self._track(command, batches, records)
        return True

    async def put_blocking(self, command, batches=1, records=0):
        """Enqueue, waiting out a full queue (documents are precious)."""
        while True:
            try:
                self._queue.put_nowait(command)
            except Exception:
                await asyncio.sleep(0.005)
                continue
            self._track(command, batches, records)
            return

    def _track(self, command, batches, records):
        """Account an enqueued command against the crash backlog.

        Sequence numbers must mirror the worker's ``processed`` count
        exactly, and the worker counts only fold commands — ``snap``
        barriers carry no foldable state (a lost one is retried, not
        dropped), so they must not consume a sequence number.
        """
        self.accepted_batches += batches
        if command[0] != "snap":
            self._seq += 1
            self._backlog.append((self._seq, batches, records))

    async def snap(self):
        """Barrier + state fetch: the shard database after everything
        enqueued before this call has folded.  Returns the database."""
        token = self._next_token
        self._next_token += 1
        future = self.loop.create_future()
        self._pending[token] = future
        await self.put_blocking(("snap", token), batches=0, records=0)
        blob = await future
        database, _counters = pickle.loads(blob)
        self.total_samples = database.total_samples
        self.evicted_samples = database.evicted_samples
        self.bucket_count = database.bucket_count
        return database

    async def snap_retry(self):
        """:meth:`snap`, absorbing one worker death mid-barrier."""
        for _attempt in range(2):
            try:
                return await self.snap()
            except WorkerRestarted:
                continue
        raise ServiceError("shard worker %d keeps dying under barrier"
                           % self.index)

    def queue_depth(self):
        try:
            return self._queue.qsize()
        except (NotImplementedError, OSError):
            return -1


def make_workers(count, keep_addresses=0, queue_size=64, fold_delay=0.0,
                 loop=None, rollup_interval=0, retain_buckets=0):
    return [ProcessShardWorker(index, keep_addresses=keep_addresses,
                               queue_size=queue_size, fold_delay=fold_delay,
                               loop=loop, rollup_interval=rollup_interval,
                               retain_buckets=retain_buckets)
            for index in range(count)]


def worker_pid(worker):
    """The worker's OS pid — the handle the fault-injection tests
    SIGKILL."""
    return worker.process.pid


def kill_worker(worker):
    """SIGKILL the worker process (test fault injection)."""
    os.kill(worker_pid(worker), 9)
