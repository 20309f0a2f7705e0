"""End-to-end tests for continuous-ingest rollup through the service.

A server started with ``--rollup-interval`` buckets every shard's
samples by their wire-carried fetch cycle; ``--retain-buckets`` bounds
live buckets per shard with eviction accounting.  These tests drive the
full path — client push over the v2 wire, shard workers, the ``epochs``
query, stats accounting, and the probe registry's per-shard gauges.
"""

import pytest

from repro.analysis.database import ProfileDatabase
from repro.analysis.persistence import canonical_json
from repro.errors import ProtocolError, ServiceError
from repro.service.client import ProfileClient
from repro.service.server import ServerThread

from tests.analysis.test_rollup import tick_record


@pytest.fixture
def rollup_server():
    with ServerThread(port=0, shards=2, rollup_interval=100) as thread:
        yield thread


def _push_stream(address, ticks, pc=0x10):
    with ProfileClient(address) as client:
        client.push([tick_record(tick, pc=pc) for tick in ticks])
        client.drain()


class TestEpochsQuery:
    def test_epochs_report_bucketed_ingest(self, rollup_server):
        _push_stream(rollup_server.address, range(0, 500, 50))
        with ProfileClient(rollup_server.address) as client:
            reply = client.epochs()
        assert reply["rollup_interval"] == 100
        assert reply["retain_buckets"] == 0
        assert reply["evicted_samples"] == 0
        assert sum(row["samples"] for row in reply["epochs"]) == 10
        assert reply["total_samples"] == 10
        starts = [row["start"] for row in reply["epochs"]]
        assert starts == sorted(starts)

    def test_since_until_filter(self, rollup_server):
        _push_stream(rollup_server.address, range(0, 1000, 100))
        with ProfileClient(rollup_server.address) as client:
            window = client.epochs(since=300, until=600)
            everything = client.epochs()
        assert window["epochs"]
        assert len(window["epochs"]) < len(everything["epochs"])
        for row in window["epochs"]:
            assert row["start"] < 600
            assert row["start"] + row["span"] > 300

    def test_limit_keeps_newest(self, rollup_server):
        _push_stream(rollup_server.address, range(0, 1000, 100))
        with ProfileClient(rollup_server.address) as client:
            capped = client.epochs(limit=2)
            everything = client.epochs()
        assert len(capped["epochs"]) == 2
        assert capped["epochs"] == everything["epochs"][-2:]

    def test_malformed_ranges_rejected_client_side(self, rollup_server):
        with ProfileClient(rollup_server.address) as client:
            with pytest.raises(ProtocolError):
                client.epochs(since=10, until=10)
            with pytest.raises(ProtocolError):
                client.epochs(limit=0)
            with pytest.raises(ProtocolError):
                client.epochs(since="soon")

    def test_epochs_on_flat_server_is_empty(self):
        with ServerThread(port=0, shards=1) as thread:
            _push_stream(thread.address, [0, 10, 20])
            with ProfileClient(thread.address) as client:
                reply = client.epochs()
        assert reply["epochs"] == []
        assert reply["rollup_interval"] == 0
        assert reply["total_samples"] == 3


class TestRetentionAccounting:
    def test_ingested_equals_retained_plus_evicted(self):
        with ServerThread(port=0, shards=2, rollup_interval=50,
                          retain_buckets=3) as thread:
            _push_stream(thread.address, range(0, 2000, 20))
            with ProfileClient(thread.address) as client:
                reply = client.epochs()
                stats = client.query("stats")
        assert reply["evicted_samples"] > 0
        assert reply["total_samples"] + reply["evicted_samples"] == 100
        assert sum(reply["shard_evicted"]) == reply["evicted_samples"]
        assert stats["stats"]["evicted_samples"] == \
            reply["evicted_samples"]

    def test_shard_probes_expose_buckets_and_evictions(self):
        with ServerThread(port=0, shards=1, rollup_interval=50,
                          retain_buckets=2) as thread:
            _push_stream(thread.address, range(0, 1000, 25))
            with ProfileClient(thread.address) as client:
                reply = client.query("probes", pattern="service.shard0.*")
        probes = reply["probes"]
        assert probes["service.shard0.buckets"]["kind"] == "gauge"
        assert probes["service.shard0.buckets"]["value"] >= 1
        assert probes["service.shard0.evicted_samples"]["value"] > 0

    def test_stragglers_under_retention_match_in_process_fold(self):
        # Ticks that go back behind the retained horizon: the served fold
        # must create, evict and clamp buckets in arrival order, as
        # record-by-record aggregation does.
        ticks = [50, 150, 50, 250, 120, 10, 260, 40]
        with ServerThread(port=0, shards=1, rollup_interval=100,
                          retain_buckets=2) as thread:
            _push_stream(thread.address, ticks)
            with ProfileClient(thread.address) as client:
                served = client.query("export")["database"]
        reference = ProfileDatabase(rollup_interval=100, retain_buckets=2)
        for tick in ticks:
            reference.add(tick_record(tick))
        assert reference.evicted_samples > 0
        # The query view merges the shards into a database that does not
        # re-evict.
        view = ProfileDatabase(rollup_interval=100)
        view.merge(reference)
        assert canonical_json(served) == canonical_json(view.to_dict())

    def test_retention_requires_interval(self):
        with pytest.raises(ServiceError):
            ServerThread(port=0, retain_buckets=2)


class TestRollupQueries:
    def test_top_and_export_see_all_buckets(self, rollup_server):
        _push_stream(rollup_server.address, range(0, 500, 50), pc=0x10)
        _push_stream(rollup_server.address, range(0, 300, 50), pc=0x20)
        with ProfileClient(rollup_server.address) as client:
            top = client.query("top", event="RETIRED", limit=5)
            export = client.query("export")
        assert top["top"] == [[0x10, 10], [0x20, 6]]
        assert export["database"]["version"] == 2
        assert export["database"]["total_samples"] == 16

    def test_worker_accounting_matches_in_process_fold(self):
        ticks = list(range(0, 1200, 30))
        with ServerThread(port=0, shards=1, rollup_interval=100,
                          retain_buckets=4) as thread:
            _push_stream(thread.address, ticks)
            with ProfileClient(thread.address) as client:
                reply = client.epochs()
        reference = ProfileDatabase(rollup_interval=100, retain_buckets=4)
        for tick in ticks:
            reference.add(tick_record(tick))
        assert reference.evicted_samples > 0  # retention really evicted
        assert reply["total_samples"] == reference.total_samples
        assert reply["evicted_samples"] == reference.evicted_samples
        assert reply["epochs"] == reference.epoch_summaries()
