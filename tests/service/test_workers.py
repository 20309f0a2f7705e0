"""Fault injection for the shard worker processes.

A continuous profiler's folder must behave like the paper's sampling
hardware under stress: losses are allowed, *unaccounted* losses are not,
and a restarted component must not replay anything twice.  These tests
SIGKILL workers mid-fold and check the two crash invariants end to end:

* the restarted worker resumes from its last checkpoint, so exports stay
  byte-identical to what the checkpoint contained — nothing is double
  counted, nothing half-folded survives;
* every batch accepted after that checkpoint is accounted as dropped,
  so ``records + dropped_records`` always equals what producers sent.

Plus the shedding path (bounded queue overflow) surfacing through the
``service.worker<N>.*`` probe namespace.
"""

import dataclasses
import json
import socket

import pytest

from repro.analysis.database import ProfileDatabase
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import ProfileRecord
from repro.service.protocol import (hello_frame, plan_push_frames,
                                    recv_frame, send_frame)
from repro.service.server import ServerThread
from repro.service.workers import kill_worker


def canonical_json(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def make_records(count, base_pc=0x40):
    return [ProfileRecord(
        context=0, pc=base_pc + 4 * (i % 16), op=Opcode.ADD, addr=None,
        events=Event.RETIRED | (Event.DCACHE_MISS if i % 3 == 0
                                else Event.NONE),
        abort_reason=AbortReason.NONE, history=i,
        fetch_to_map=2, map_to_data_ready=None, data_ready_to_issue=1,
        issue_to_retire_ready=None, retire_ready_to_retire=3,
        load_issue_to_completion=None,
        fetch_cycle=100 + 10 * i, done_cycle=120 + 10 * i)
        for i in range(count)]


class SyncConnection:
    """A raw v2 connection whose pushes are acknowledged per batch.

    ``push_sync`` returns only after the server has *accepted* (enqueued
    or shed) the batch, which is what makes kill timing deterministic:
    after the ack, the batch is in the worker's backlog accounting.
    """

    def __init__(self, server):
        self.sock = socket.create_connection((server.host, server.port),
                                             timeout=10.0)
        send_frame(self.sock, hello_frame())
        reply = recv_frame(self.sock)
        assert reply.get("kind") == "ok"

    def push_sync(self, samples):
        frames = [frame for frame, _ in plan_push_frames(samples, sync=True)]
        replies = []
        for frame in frames:
            self.sock.sendall(frame)
            reply = recv_frame(self.sock)
            assert reply.get("kind") == "ok"
            replies.append(reply)
        return replies

    def query(self, command, **params):
        send_frame(self.sock, {"kind": "query", "command": command,
                               "params": params})
        reply = recv_frame(self.sock)
        assert reply.get("kind") == "ok", reply.get("message")
        return reply

    def close(self):
        self.sock.close()


class TestCrashRecovery:
    @pytest.fixture()
    def server(self):
        with ServerThread(port=0, shards=1, queue_size=64,
                          fold_delay=0.02) as thread:
            yield thread.server

    def test_sigkill_mid_fold_no_double_count(self, server):
        conn = SyncConnection(server)
        try:
            for i in range(4):
                conn.push_sync(make_records(5, base_pc=0x40 + 0x100 * i))
            export1 = conn.query("export")
            stats1 = conn.query("stats")
            assert stats1["stats"]["records"] == 20
            assert stats1["stats"]["dropped_records"] == 0

            # Six more batches, accepted (acked) but not checkpointed:
            # whether or not the worker folds them before the kill, they
            # are exactly what the crash must account as dropped.
            for i in range(6):
                conn.push_sync(make_records(5, base_pc=0x40 + 0x100 * i))
            kill_worker(server.workers[0])

            export2 = conn.query("export")
            stats2 = conn.query("stats")["stats"]
            assert canonical_json(export2["database"]) \
                == canonical_json(export1["database"])
            assert stats2["worker_restarts"] == 1
            assert stats2["records"] == 20
            assert stats2["dropped_batches"] == 6
            assert stats2["dropped_records"] == 30
            assert stats2["records"] + stats2["dropped_records"] == 50

            # The restarted worker keeps folding new traffic.
            conn.push_sync(make_records(5, base_pc=0x9000))
            stats3 = conn.query("stats")
            assert stats3["stats"]["records"] == 25
            assert stats3["total_samples"] == 25
            assert stats3["stats"]["dropped_records"] == 30
        finally:
            conn.close()

    def test_sigkill_before_any_checkpoint(self, server):
        conn = SyncConnection(server)
        try:
            for _ in range(3):
                conn.push_sync(make_records(4))
            kill_worker(server.workers[0])
            stats = conn.query("stats")["stats"]
            assert stats["worker_restarts"] == 1
            assert stats["records"] == 0
            assert stats["dropped_records"] == 12
            # Fresh start from nothing: new pushes fold normally.
            conn.push_sync(make_records(4))
            assert conn.query("stats")["total_samples"] == 4
        finally:
            conn.close()

    def test_restart_surfaces_in_worker_probes(self, server):
        conn = SyncConnection(server)
        try:
            conn.push_sync(make_records(3))
            conn.query("stats")  # checkpoint
            conn.push_sync(make_records(3))
            kill_worker(server.workers[0])
            conn.query("stats")  # barrier through the restarted worker
            probes = conn.query("probes", pattern="service.worker0.*")
            values = {name: probe["value"]
                      for name, probe in probes["probes"].items()}
            assert values["service.worker0.restarts"] == 1
            assert values["service.worker0.dropped_batches"] == 1
            assert values["service.worker0.dropped_records"] == 3
            assert values["service.worker0.records"] == 3
        finally:
            conn.close()


class TestSeededRestart:
    def test_restart_before_first_snap_keeps_shard_settings(self):
        # A worker killed before it ever checkpointed restarts from the
        # server's seed database, so it keeps the shard's address
        # retention and rollup: its export matches an in-process fold.
        records = [dataclasses.replace(record, addr=0x1000 + 8 * i)
                   for i, record in enumerate(make_records(40))]
        with ServerThread(port=0, shards=1, keep_addresses=2,
                          rollup_interval=100) as thread:
            server = thread.server
            conn = SyncConnection(server)
            try:
                conn.push_sync(make_records(4))
                kill_worker(server.workers[0])
                stats = conn.query("stats")["stats"]
                assert stats["worker_restarts"] == 1
                assert stats["dropped_records"] == 4
                conn.push_sync(records)
                export = conn.query("export")["database"]
            finally:
                conn.close()
        reference = ProfileDatabase(keep_addresses=2, rollup_interval=100)
        for record in records:
            reference.add(record)
        assert export["version"] == 2
        assert export["keep_addresses"] == 2
        assert export["addresses"]
        assert len(export["buckets"]) > 1
        assert canonical_json(export) == canonical_json(reference.to_dict())


class TestQueueShedding:
    def test_overflow_is_shed_and_visible_in_probes(self):
        with ServerThread(port=0, shards=1, queue_size=2,
                          fold_delay=0.05) as thread:
            server = thread.server
            conn = SyncConnection(server)
            try:
                sent = 12
                dropped_acks = 0
                for i in range(sent):
                    replies = conn.push_sync(make_records(5))
                    dropped_acks += sum(1 for r in replies if r["dropped"])
                assert dropped_acks > 0  # the queue really overflowed
                stats = conn.query("stats")["stats"]
                assert stats["records"] > 0  # ...but the shard kept folding
                assert stats["dropped_batches"] == dropped_acks
                assert stats["batches"] == sent - dropped_acks
                assert stats["records"] + stats["dropped_records"] \
                    == sent * 5
                probes = conn.query("probes",
                                    pattern="service.worker0.*")
                values = {name: probe["value"]
                          for name, probe in probes["probes"].items()}
                assert values["service.worker0.dropped_batches"] \
                    == dropped_acks
                assert values["service.worker0.dropped_records"] \
                    == dropped_acks * 5
                assert values["service.worker0.restarts"] == 0
            finally:
                conn.close()
