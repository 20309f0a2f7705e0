"""Tests for the continuous-profiling server and client transport.

Covers ingestion, the query API, overload behaviour (bounded queues +
drop accounting), snapshot persistence, spill/replay fault tolerance,
and the acceptance-criterion end-to-end differential: a database
exported from the service after streaming a session through the wire is
byte-identical (canonical JSON) to the database built in-process.
"""

import dataclasses
import os
import socket
import struct

import pytest

from repro.analysis.persistence import canonical_json, load_database
from repro.engine.session import SessionSpec, run_session
from repro.engine.sweep import spec_key
from repro.events import Event
from repro.profileme.unit import ProfileMeConfig
from repro.service.client import ProfileClient, ServiceSink
from repro.service.protocol import (MAX_FRAME_BYTES, WIRE_VERSION,
                                    hello_frame, recv_frame, send_frame)
from repro.service.server import ServerThread
from repro.workloads import stall_kernel

from tests.analysis.test_database import make_record


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture
def server():
    with ServerThread(port=0, shards=2) as thread:
        yield thread


class TestProbePush:
    def test_probe_readings_fold_into_series(self, server):
        with ProfileClient(server.address) as client:
            client.push_probes({"cpu0.core.ipc": 0.5,
                                "cpu0.core.retired": 100}, tick=1000)
            client.push_probes({"cpu0.core.ipc": 0.7,
                                "cpu0.core.retired": 250}, tick=2000)
            client.drain()
            reply = client.query("probes", pattern="cpu0.*")
        series = reply["series"]
        assert series["cpu0.core.retired"] == [2, 350, 100, 250, 250, 2000]
        count, total, minimum, maximum, last, last_tick = \
            series["cpu0.core.ipc"]
        assert count == 2 and last == pytest.approx(0.7)
        assert minimum == pytest.approx(0.5)
        assert last_tick == 2000

    def test_series_pattern_filter_and_registry_snapshot(self, server):
        with ProfileClient(server.address) as client:
            client.push_probes({"cpu0.core.ipc": 0.5, "mem.l2.misses": 3},
                               tick=10)
            client.drain()
            reply = client.query("probes", pattern="mem.*")
        assert list(reply["series"]) == ["mem.l2.misses"]
        # The server's own registry never matches a mem.* pattern...
        assert reply["probes"] == {}
        with ProfileClient(server.address) as client:
            wide = client.query("probes")
        # ...but an unfiltered query snapshots it: ServerStats counters
        # plus per-shard samples/lag gauges, with live values.
        assert wide["probes"]["service.probe_pushes"]["value"] == 1
        assert wide["probes"]["service.shard0.lag"]["kind"] == "gauge"

    def test_non_numeric_readings_are_skipped(self, server):
        with ProfileClient(server.address) as client:
            client.push_probes({"profileme.registers.abort_reason": "none",
                                "cpu0.core.halted": 0}, tick=5)
            client.drain()
            reply = client.query("probes")
        assert "profileme.registers.abort_reason" not in reply["series"]
        assert "cpu0.core.halted" in reply["series"]

    def test_streamed_session_lands_probe_series(self, server):
        spec = SessionSpec(
            program=stall_kernel("dcache_miss", iterations=120),
            profile=ProfileMeConfig(mean_interval=50),
            keep_records=False, push_to=server.address, probe_stream=200)
        result = run_session(spec)
        with ProfileClient(server.address) as client:
            client.drain()
            reply = client.query("probes", pattern="cpu0.core.retired")
        series = reply["series"]["cpu0.core.retired"]
        # The final flush samples the end-of-run registry, so the
        # series' last reading equals the session's own snapshot.
        assert series[4] == result.probes["cpu0.core.retired"]["value"]
        assert series[5] == result.cycles


class TestIngestAndQuery:
    def test_push_drain_query_top(self, server):
        with ProfileClient(server.address) as client:
            client.push([make_record(pc=0x10),
                         make_record(pc=0x10),
                         make_record(pc=0x20,
                                     events=Event.RETIRED | Event.DCACHE_MISS)])
            client.drain()
            reply = client.query("top", event="RETIRED", limit=5)
        assert reply["top"][0] == [0x10, 2]
        assert reply["total_samples"] == 3
        assert reply["dropped_records"] == 0

    def test_latency_and_stats_queries(self, server):
        with ProfileClient(server.address) as client:
            client.push([make_record(pc=0x10,
                                     latencies={"fetch_to_map": 6})])
            client.drain()
            latency = client.query("latency", pc=0x10)
            stats = client.query("stats")
            missing = client.query("latency", pc=0x999)
        assert latency["found"] and latency["samples"] == 1
        assert latency["latencies"]["fetch_to_map"] == [1, 6, 36]
        assert stats["total_samples"] == 1
        assert stats["stats"]["batches"] == 1
        assert not missing["found"]

    def test_convergence_reports_error_envelope(self, server):
        with ProfileClient(server.address) as client:
            client.push([make_record(pc=0x10) for _ in range(16)])
            client.drain()
            reply = client.query("convergence", event="RETIRED", limit=1)
        row = reply["convergence"][0]
        assert row["pc"] == 0x10
        assert row["samples"] == 16
        assert row["envelope"] == pytest.approx(1 / 4.0)

    def test_push_database_document_merges(self, server):
        from repro.analysis.database import ProfileDatabase

        db = ProfileDatabase()
        db.add(make_record(pc=0x40))
        with ProfileClient(server.address) as client:
            client.push([make_record(pc=0x40)])
            assert client.push_database(db.to_dict())
            client.drain()
            reply = client.query("stats")
        assert reply["total_samples"] == 2
        assert reply["stats"]["db_merges"] == 1

    def test_sharding_spreads_connections(self, server):
        for pc in (0x10, 0x20):
            with ProfileClient(server.address) as client:
                client.push([make_record(pc=pc)])
                client.drain()
        with ProfileClient(server.address) as client:
            reply = client.query("stats")
        assert sorted(reply["shards"], reverse=True)[0] >= 1
        assert reply["total_samples"] == 2
        assert len(reply["shards"]) == 2

    def test_unknown_event_is_a_handled_error(self, server):
        from repro.errors import ProtocolError

        with ProfileClient(server.address) as client:
            with pytest.raises(ProtocolError, match="unknown event"):
                client.query("top", event="BOGUS")
            with pytest.raises(ProtocolError, match="unknown query"):
                client.query("frobnicate")


class TestProtocolEnforcement:
    def test_version_mismatch_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.server.port),
                                        timeout=5)
        try:
            send_frame(sock, {"kind": "hello", "version": 99})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["kind"] == "error"
        assert "version" in reply["message"]
        assert WIRE_VERSION == 2
        assert "speaks 2" in reply["message"]

    def test_non_hello_opening_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.server.port),
                                        timeout=5)
        try:
            send_frame(sock, {"kind": "push", "records": []})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["kind"] == "error"

    def test_unknown_kind_after_handshake(self, server):
        sock = socket.create_connection(("127.0.0.1", server.server.port),
                                        timeout=5)
        try:
            send_frame(sock, hello_frame())
            assert recv_frame(sock)["kind"] == "ok"
            send_frame(sock, {"kind": "launder"})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["kind"] == "error"
        assert "unknown frame kind" in reply["message"]


class TestOverload:
    def test_drops_are_counted_and_server_stays_responsive(self):
        # Slow the folder down so a flooding producer outruns it: the
        # bounded queue sheds batches, the counters account for every
        # one, and the connection keeps answering queries.
        with ServerThread(port=0, shards=1, queue_size=2,
                          fold_delay=0.02) as server:
            sent = 30
            with ProfileClient(server.address) as client:
                for index in range(sent):
                    client.push([make_record(pc=0x10 + 4 * index)])
                client.drain()
                reply = client.query("stats")
        stats = reply["stats"]
        assert stats["dropped_batches"] > 0
        assert stats["batches"] + stats["dropped_batches"] == sent
        assert stats["records"] + stats["dropped_records"] == sent
        assert reply["total_samples"] == stats["records"]

    def test_loss_accounting_rides_every_query(self, server):
        with ProfileClient(server.address) as client:
            for reply in (client.query("stats"),
                          client.query("top"),
                          client.query("export"),
                          client.drain()):
                assert "dropped_batches" in reply
                assert "dropped_records" in reply


class TestSnapshots:
    def test_snapshot_written_atomically_and_loadable(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        with ServerThread(port=0, snapshot_path=path,
                          snapshot_interval=3600.0) as server:
            with ProfileClient(server.address) as client:
                client.push([make_record(pc=0x10)])
                client.drain()
        # stop() writes a final snapshot; no .tmp leftovers.
        database = load_database(path)
        assert database.samples_at(0x10) == 1
        assert [n for n in os.listdir(str(tmp_path)) if ".tmp" in n] == []


class TestClientFaultTolerance:
    def test_unreachable_server_without_spill_counts_losses(self):
        client = ProfileClient("127.0.0.1:%d" % _free_port(),
                               retries=1, backoff=0.01, cooldown=60.0)
        assert not client.push([make_record()])
        assert not client.push([make_record()])
        assert client.stats.lost_batches == 2
        # Second push hit the cooldown window: only the first burned
        # connection attempts.
        assert client.stats.retries == 1

    def test_spill_and_replay_delivers_everything(self, tmp_path):
        port = _free_port()
        spill = str(tmp_path / "spill.bin")
        client = ProfileClient("127.0.0.1:%d" % port, retries=0,
                               backoff=0.01, spill_path=spill)
        client.push([make_record(pc=0x10)])
        client.push([make_record(pc=0x20)])
        assert client.stats.spilled_batches == 2
        assert os.path.getsize(spill) > 0

        server = ServerThread(port=port)
        server.start()
        try:
            client.push([make_record(pc=0x30)])
            client.drain()
            reply = client.query("stats")
        finally:
            client.close()
            server.stop()
        assert reply["total_samples"] == 3
        assert client.stats.replayed_batches >= 2
        assert os.path.getsize(spill) == 0  # truncated after replay

    def test_truncated_spill_replay_counts_the_dropped_batch(self, tmp_path):
        # Fault injection: the producer "dies" mid-append, leaving a
        # partial trailing frame in the spill.  Replay must deliver the
        # complete frames, discard the partial one, and account for the
        # discard on both ends instead of losing it silently.
        port = _free_port()
        spill = str(tmp_path / "spill.bin")
        client = ProfileClient("127.0.0.1:%d" % port, retries=0,
                               backoff=0.01, spill_path=spill)
        client.push([make_record(pc=0x10)])
        client.push([make_record(pc=0x20)])
        assert client.stats.spilled_batches == 2
        with open(spill, "rb+") as stream:
            stream.truncate(os.path.getsize(spill) - 3)

        server = ServerThread(port=port)
        server.start()
        try:
            client.drain()  # reconnects; replay runs first
            client.push([make_record(pc=0x30)])
            client.drain()
            reply = client.query("stats")
        finally:
            client.close()
            server.stop()
        assert client.stats.replayed_batches == 1
        assert client.stats.replay_dropped == 1
        assert reply["total_samples"] == 2  # one replayed + one live
        assert reply["stats"]["replay_dropped"] == 1

    def test_corrupt_spill_is_discarded_counted_and_unblocks(self, tmp_path):
        # A garbage length prefix used to make every reconnection raise,
        # wedging the client on an unreplayable file forever.  Now the
        # junk is dropped, counted, and the connection proceeds.
        port = _free_port()
        spill = str(tmp_path / "spill.bin")
        with open(spill, "wb") as stream:
            stream.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
            stream.write(b"junk")

        server = ServerThread(port=port)
        server.start()
        try:
            client = ProfileClient("127.0.0.1:%d" % port, retries=0,
                                   backoff=0.01, spill_path=spill)
            assert client.push([make_record(pc=0x10)])
            client.drain()
            reply = client.query("stats")
            client.close()
        finally:
            server.stop()
        assert client.stats.replay_dropped == 1
        assert os.path.getsize(spill) == 0
        assert reply["total_samples"] == 1
        assert reply["stats"]["replay_dropped"] == 1

    def test_sink_batches_and_drains(self, server):
        client = ProfileClient(server.address)
        sink = ServiceSink(client, batch_size=4)
        for index in range(10):
            sink.add(make_record(pc=0x10 + 4 * index))
        info = sink.close()  # flush remainder + drain + disconnect
        assert info is not None
        assert client.stats.sent_batches == 3  # 4 + 4 + 2
        assert client.stats.sent_records == 10


class TestEndToEndDifferential:
    def _spec(self):
        return SessionSpec(
            program=stall_kernel("dep_chain", iterations=200),
            profile=ProfileMeConfig(mean_interval=30, seed=1),
            keep_records=False, keep_addresses=0)

    def test_served_export_byte_identical_to_in_process(self, server):
        spec = self._spec()
        expected = canonical_json(run_session(spec).database.to_dict())

        pushed = dataclasses.replace(spec, push_to=server.address)
        run_session(pushed)
        with ProfileClient(server.address) as client:
            served = canonical_json(client.query("export")["database"])
        assert served == expected

    def test_push_to_does_not_move_the_spec_key(self):
        spec = self._spec()
        pushed = dataclasses.replace(spec, push_to="127.0.0.1:9137")
        assert spec_key(spec) == spec_key(pushed)

    def test_paired_sampling_streams_identically(self, server):
        spec = SessionSpec(
            program=stall_kernel("dcache_miss", iterations=150),
            profile=ProfileMeConfig(mean_interval=40, paired=True, seed=2),
            keep_records=False)
        expected = canonical_json(run_session(spec).database.to_dict())
        run_session(dataclasses.replace(spec, push_to=server.address))
        with ProfileClient(server.address) as client:
            served = canonical_json(client.query("export")["database"])
        assert served == expected
