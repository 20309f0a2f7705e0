"""Tests for profile save/load/merge."""

import json
import os

import pytest

from repro.analysis.persistence import (database_from_dict,
                                        database_to_dict, load_database,
                                        load_result, save_database)
from repro.analysis.database import ProfileDatabase
from repro.errors import AnalysisError, PersistenceError
from repro.events import Event
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig

from tests.analysis.test_database import make_record
from tests.conftest import counting_loop


def _populated():
    db = ProfileDatabase(keep_addresses=4)
    db.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS, addr=64))
    db.add(make_record(pc=0x20))
    return db


class TestRoundTrip:
    def test_dict_round_trip(self):
        db = _populated()
        clone = database_from_dict(database_to_dict(db))
        assert clone.total_samples == db.total_samples
        assert clone.pcs() == db.pcs()
        original = db.profile(0x10)
        restored = clone.profile(0x10)
        assert restored.samples == original.samples
        assert restored.event_count(Event.DCACHE_MISS) == 1
        assert (restored.latency("fetch_to_map").mean
                == original.latency("fetch_to_map").mean)
        assert restored.addresses == [(64, True, False)]

    def test_file_round_trip(self, tmp_path):
        db = _populated()
        path = tmp_path / "profile.json"
        save_database(db, str(path))
        clone = load_database(str(path))
        assert clone.total_samples == db.total_samples
        # The file is honest JSON.
        with open(path) as stream:
            data = json.load(stream)
        assert data["format"] == "repro-profile"

    def test_real_run_round_trip(self, tmp_path):
        program = counting_loop(iterations=500)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=10, seed=1)))
        path = tmp_path / "run.json"
        save_database(run.database, str(path))
        clone = load_database(str(path))
        for pc in run.database.pcs():
            assert clone.samples_at(pc) == run.database.samples_at(pc)

    def test_merge_after_load(self, tmp_path):
        db = _populated()
        path = tmp_path / "a.json"
        save_database(db, str(path))
        clone = load_database(str(path))
        clone.merge(db)
        assert clone.samples_at(0x10) == 2 * db.samples_at(0x10)


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(AnalysisError, match="not a repro profile"):
            database_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self):
        data = database_to_dict(_populated())
        data["version"] = 99
        with pytest.raises(AnalysisError, match="version"):
            database_from_dict(data)

    def test_rejects_unknown_event(self):
        data = database_to_dict(_populated())
        next(iter(data["per_pc"].values()))["events"]["BOGUS"] = 1
        with pytest.raises(AnalysisError, match="unknown event"):
            database_from_dict(data)


class TestFailurePaths:
    """Every load failure mode must raise a typed error, never load
    silently or leak a raw OSError/KeyError/JSONDecodeError."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_database(str(tmp_path / "nope.json"))
        with pytest.raises(PersistenceError, match="cannot read"):
            load_result(str(tmp_path / "nope.json"))

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "profile.json"
        save_database(_populated(), str(path))
        path.chmod(0o000)
        try:
            if os.access(str(path), os.R_OK):  # running as root
                pytest.skip("permissions are not enforced for this user")
            with pytest.raises(PersistenceError, match="cannot read"):
                load_database(str(path))
        finally:
            path.chmod(0o644)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{ this is not json")
        with pytest.raises(PersistenceError, match="corrupt"):
            load_database(str(path))
        with pytest.raises(PersistenceError, match="corrupt"):
            load_result(str(path))

    def test_interrupted_write_half_a_document(self, tmp_path):
        # Simulate a crash mid-write: a valid document truncated at
        # half its length is corrupt, not quietly loadable.
        complete = tmp_path / "complete.json"
        save_database(_populated(), str(complete))
        text = complete.read_text()
        partial = tmp_path / "partial.json"
        partial.write_text(text[:len(text) // 2])
        with pytest.raises(PersistenceError, match="corrupt"):
            load_database(str(partial))

    def test_wrong_version(self, tmp_path):
        data = database_to_dict(_populated())
        data["version"] = 99
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError, match="version"):
            load_database(str(path))

    def test_missing_required_field(self):
        data = database_to_dict(_populated())
        del data["total_samples"]
        with pytest.raises(PersistenceError, match="malformed"):
            database_from_dict(data)

    def test_malformed_latency_triple(self):
        data = database_to_dict(_populated())
        next(iter(data["per_pc"].values()))["latencies"] = {
            "fetch_to_map": [1, 2]}  # triple truncated to a pair
        with pytest.raises(PersistenceError, match="malformed"):
            database_from_dict(data)

    def test_non_document_input(self):
        with pytest.raises(AnalysisError, match="not a repro profile"):
            database_from_dict(["not", "a", "dict"])

    def test_result_missing_field(self, tmp_path):
        from repro.analysis.persistence import result_from_dict

        with pytest.raises(PersistenceError, match="malformed"):
            result_from_dict({"format": "repro-session-result",
                              "version": 1, "stats": {}})

    @staticmethod
    def _bucketed():
        db = ProfileDatabase(rollup_interval=100)
        db.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS))
        data = database_to_dict(db)
        assert data["version"] == 2
        return data

    @pytest.mark.parametrize("field", ("samples", "taken_count", "events"))
    def test_count_past_int64_is_typed(self, field):
        # The per-PC columns are int64 arrays: 2**70 used to escape as a
        # bare OverflowError from the column write.
        huge = 2 ** 70
        flat = database_to_dict(_populated())
        bucketed = self._bucketed()
        for payload in (next(iter(flat["per_pc"].values())),
                        next(iter(bucketed["buckets"][0]["per_pc"]
                                  .values()))):
            if field == "events":
                payload["events"]["RETIRED"] = huge
            else:
                payload[field] = huge
        for data in (flat, bucketed):
            with pytest.raises(PersistenceError, match="malformed"):
                database_from_dict(data)

    def test_result_count_past_int64_is_typed(self):
        from repro.analysis.persistence import result_from_dict

        path = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                            "formats", "session_result_v1.json")
        with open(path) as stream:
            data = json.load(stream)
        next(iter(data["database"]["per_pc"].values()))["samples"] = 2 ** 70
        with pytest.raises(PersistenceError, match="malformed"):
            result_from_dict(data)

    @pytest.mark.parametrize("value", ("lots", 2 ** 70, -1, 1.5, None,
                                       True))
    def test_total_samples_must_be_a_count(self, value):
        for data in (database_to_dict(_populated()), self._bucketed()):
            data["total_samples"] = value
            with pytest.raises(PersistenceError, match="total_samples"):
                database_from_dict(data)

    @pytest.mark.parametrize("value", ("many", 2 ** 70, -1, 1.5, None,
                                       True))
    def test_keep_addresses_must_be_a_count(self, value):
        for data in (database_to_dict(_populated()), self._bucketed()):
            data["keep_addresses"] = value
            with pytest.raises(PersistenceError, match="keep_addresses"):
                database_from_dict(data)

    @staticmethod
    def _result_fixture():
        path = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                            "formats", "session_result_v1.json")
        with open(path) as stream:
            data = json.load(stream)
        # Every int field of a two-speed run's accounting, all valid.
        data["two_speed"] = {"windows": 3, "warmup": 100,
                             "fast_forwarded": 9000,
                             "detailed_retired": 1200,
                             "detailed_cycles": 2500,
                             "skipped_samples": 1}
        return data

    @pytest.mark.parametrize("field", (
        ("cycles",), ("stats", "retired"), ("stats", "cycles"),
        ("sampling_stats", "tagged"),
        ("sampling_stats", "max_concurrent_groups"),
        ("two_speed", "windows"), ("two_speed", "detailed_cycles")))
    @pytest.mark.parametrize("value", ("lots", 2 ** 70, -1, 2.5, None,
                                       False))
    def test_result_counts_must_be_counts(self, field, value):
        from repro.analysis.persistence import result_from_dict

        result = result_from_dict(self._result_fixture())
        assert result.two_speed.windows == 3
        data = self._result_fixture()
        target = data
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        with pytest.raises(PersistenceError, match=field[-1]):
            result_from_dict(data)

    def test_persistence_error_is_an_analysis_error(self):
        # Back-compat: handlers written against AnalysisError keep
        # catching the new typed failures.
        assert issubclass(PersistenceError, AnalysisError)
