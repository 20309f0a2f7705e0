"""Client transport: ship ProfileMe samples to a profile server.

The producer side of the service.  :class:`ProfileClient` is a blocking
(sync) transport — profiling sinks run inside simulation processes and
sweep workers, where an event loop would be in the way — with the fault
tolerance a continuous profiler needs:

* **Retry with backoff.**  A failed send reconnects and retries with
  exponential backoff; after the retry budget the client opens a short
  *cooldown* window during which pushes skip straight to the spill path,
  so an unreachable server costs a long profiling run microseconds per
  batch, not ``retries * backoff`` each.

* **Local spill.**  With a *spill_path*, batches that cannot be
  delivered are appended to a local file as raw wire frames; the next
  successful connection replays them first (oldest first), so samples
  survive server restarts.  A partial trailing frame (the producer died
  mid-append) is discarded on replay — the spill loses at most one
  batch, exactly like an interrupted snapshot loses at most one
  interval — and every such discard is counted (``replay_dropped``),
  logged as a warning naming the spill file, and reported to the
  server, which folds it into the stats that ``repro query stats``
  shows.  Without a spill path, undeliverable batches are *dropped and
  counted* (``lost_batches``) — profiling must never take down the
  workload it profiles.

* **Read-your-writes.**  :meth:`drain` is a barrier: it returns only
  after every batch this connection delivered has been folded
  server-side, carrying the server's drop accounting back.

:class:`ServiceSink` adapts the client to the
:class:`~repro.profileme.driver.ProfileMeDriver` sink interface: it
batches records and ships them per *batch_size*, making ``repro sweep
--push`` stream live samples from every worker process into one server.
"""

import logging
import os
import socket
import time
from dataclasses import dataclass

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (MAX_FRAME_BYTES, check_ok, encode_frame,
                                    encode_probe_frame, epoch_range_params,
                                    hello_frame, parse_address,
                                    plan_push_frames, push_db_frame,
                                    query_frame, recv_frame, report_frame,
                                    send_frame, split_frames, sync_frame)

logger = logging.getLogger(__name__)


@dataclass
class ClientStats:
    """Producer-side delivery accounting."""

    sent_batches: int = 0
    sent_records: int = 0
    retries: int = 0
    spilled_batches: int = 0
    replayed_batches: int = 0
    replay_dropped: int = 0  # spilled batches discarded during replay
    lost_batches: int = 0  # undeliverable and no spill file configured
    dropped_reports: int = 0  # replay-drop report frames that never went out
    close_errors: int = 0  # socket close() failures during disconnect


class ProfileClient:
    """Blocking transport speaking the profiling-service protocol."""

    def __init__(self, address, timeout=10.0, retries=3, backoff=0.05,
                 cooldown=1.0, spill_path=None,
                 max_frame_bytes=MAX_FRAME_BYTES):
        """*max_frame_bytes*: push batches are split client-side so no
        frame exceeds this."""
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cooldown = cooldown
        self.spill_path = spill_path
        self.max_frame_bytes = max_frame_bytes
        self.stats = ClientStats()
        self._sock = None
        self._down_until = 0.0

    # ------------------------------------------------------------------
    # Connection management.

    def _connect(self):
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            send_frame(sock, hello_frame())
            check_ok(recv_frame(sock), "handshake")
        except Exception:
            sock.close()
            raise
        self._sock = sock
        self._down_until = 0.0
        self._replay_spill()

    def _ensure_connected(self):
        if self._sock is None:
            self._connect()
        return self._sock

    def _disconnect(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                # Nothing in flight is lost (sends either completed or
                # already took the spill path), but a close that fails
                # leaks the descriptor until GC — count it so a client
                # stuck in a close-fail loop is visible in the stats.
                self.stats.close_errors += 1
            self._sock = None

    def close(self):
        self._disconnect()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Resilient push path.

    def push(self, samples):
        """Ship one batch (a sequence) of samples, fire-and-forget.

        The batch is encoded once and split into as many frames as the
        frame-size cap requires (almost always one).  Returns True if
        every frame went out on the socket, False if any was spilled (or
        lost with no spill file).
        """
        if not samples:
            return True
        delivered = True
        for frame, count in plan_push_frames(
                samples, max_bytes=self.max_frame_bytes):
            delivered = self._send_resilient(frame, records=count) \
                and delivered
        return delivered

    def push_database(self, document):
        """Ship a whole ``repro-profile`` document for server-side merge."""
        return self._send_resilient(encode_frame(push_db_frame(document)),
                                    records=0, await_reply=True)

    def push_probes(self, readings, tick):
        """Ship one probe-registry reading set, fire-and-forget.

        Same resilience as :meth:`push` — a reading that cannot be
        delivered is spilled (or counted lost), never raises into the
        simulation streaming it.
        """
        if not readings:
            return True
        return self._send_resilient(encode_probe_frame(readings, tick),
                                    records=0)

    def _send_resilient(self, frame_bytes, records=0, await_reply=False):
        if time.monotonic() >= self._down_until:
            for attempt in range(self.retries + 1):
                try:
                    sock = self._ensure_connected()
                    sock.sendall(frame_bytes)
                    if await_reply:
                        check_ok(recv_frame(sock), "push_db")
                    self.stats.sent_batches += 1
                    self.stats.sent_records += records
                    return True
                except (OSError, ProtocolError):
                    self._disconnect()
                    if attempt < self.retries:
                        self.stats.retries += 1
                        time.sleep(self.backoff * (2 ** attempt))
            self._down_until = time.monotonic() + self.cooldown
        if self.spill_path is not None:
            with open(self.spill_path, "ab") as stream:
                stream.write(frame_bytes)
            self.stats.spilled_batches += 1
        else:
            self.stats.lost_batches += 1
        return False

    def _replay_spill(self):
        """Re-send spilled frames over the fresh connection, then truncate.

        Runs inside :meth:`_connect`, so the frames go out before any
        new traffic — delivery order stays oldest-first.  Raises on
        socket failure (the caller's retry loop owns recovery; the spill
        file is only truncated after every frame went out).
        """
        if self.spill_path is None or not os.path.exists(self.spill_path):
            return
        with open(self.spill_path, "rb") as stream:
            data = stream.read()
        if not data:
            return
        frames, clean_length = split_frames(data, strict=False)
        self._sock.sendall(data[:clean_length])
        os.truncate(self.spill_path, 0)
        self.stats.replayed_batches += len(frames)
        if clean_length < len(data):
            # A torn or corrupt frame (producer died mid-append), or a
            # data frame in the retired v1 JSON encoding, ends the
            # salvageable prefix; everything past it is discarded as one
            # counted, reported drop event (>= 1 batch lost).
            logger.warning(
                "spill replay of %s stopped at byte %d of %d: the rest is "
                "a torn frame or a retired v1 data frame and was dropped",
                self.spill_path, clean_length, len(data))
            self._report_replay_dropped(1)
        # Replayed push_db (and sync-flagged) frames are acknowledged;
        # read those replies now so none is taken for the reply to a
        # later request.
        for frame in frames:
            if frame.get("kind") == "push_db" or frame.get("sync"):
                check_ok(recv_frame(self._sock), "spill replay")

    def _report_replay_dropped(self, batches):
        self.stats.replay_dropped += batches
        try:
            self._sock.sendall(encode_frame(report_frame(
                replay_dropped=batches)))
        except OSError:
            # The local replay_dropped counter still records the loss,
            # but the server never learned of it — its drop accounting
            # undercounts until a later report lands.  Count the
            # swallowed report frame instead of dropping it silently.
            self.stats.dropped_reports += 1

    # ------------------------------------------------------------------
    # Synchronous request/response.

    def _request(self, frame, context):
        sock = self._ensure_connected()
        try:
            send_frame(sock, frame)
            reply = recv_frame(sock)
        except OSError as exc:
            self._disconnect()
            raise ServiceError("%s: connection to %s:%d failed: %s"
                               % (context, self.host, self.port, exc)) from exc
        return check_ok(reply, context)

    def drain(self):
        """Barrier: block until every accepted batch has been folded.

        Returns the server's ok frame, which carries the loss accounting
        (``dropped_batches`` / ``dropped_records``).
        """
        return self._request(sync_frame(), "drain")

    def query(self, command, **params):
        """Run one query command; returns the server's ok frame."""
        return self._request(query_frame(command, **params),
                             "query %s" % command)

    def epochs(self, since=None, until=None, limit=None):
        """Query the server's rollup-bucket state (``epochs``).

        Parameters are validated client-side
        (:func:`~repro.service.protocol.epoch_range_params`); the reply
        carries one row per live bucket/epoch plus the retention
        accounting.
        """
        return self.query("epochs",
                          **epoch_range_params(since, until, limit))


class ServiceSink:
    """A :class:`ProfileMeDriver` sink that streams records to a server.

    Buffers *batch_size* samples per push frame (wire efficiency), and
    on :meth:`close` flushes, drains the server, and disconnects —
    after ``close()`` returns, every delivered sample is visible to
    queries.
    """

    def __init__(self, client, batch_size=256):
        if isinstance(client, (str, tuple)):
            client = ProfileClient(client)
        self.client = client
        self.batch_size = batch_size
        self._buffer = []

    def add(self, sample):
        self._buffer.append(sample)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self):
        if self._buffer:
            self.client.push(self._buffer)
            self._buffer = []

    def close(self, drain=True):
        self.flush()
        info = None
        if drain:
            try:
                info = self.client.drain()
            except (ServiceError, ProtocolError):
                info = None  # server gone: samples are spilled/counted
        self.client.close()
        return info
