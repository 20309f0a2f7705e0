"""Spill-file format fixtures: what a crashed producer left on disk.

A :class:`~repro.service.client.ProfileClient` spill file is raw wire
frames, appended while the server was unreachable and replayed verbatim
on the next connection.  Two committed spill files pin that format:

* ``tests/data/formats/spill_v2.bin`` — one of every frame kind a spill
  can carry (``push``, ``probe_push``, ``push_db``, ``report``), written
  by :func:`v2_spill_bytes`.  Regenerate it from the repository root
  with ``PYTHONPATH=src python -m tests.service.test_spill_formats``.
* ``tests/data/formats/spill_v1.bin`` — a spill from the last release
  that still encoded data frames as v1 JSON (git rev ``fd7d0af``): a
  ``push_db`` frame followed by v1 JSON ``push``, ``probe_push`` and
  ``push`` frames.  It was written there as ``encode_frame(push_db_frame(
  fixture_document()))`` followed by ``encode_push_frames(samples,
  version=1)`` / ``encode_probe_frame(..., version=1)`` over
  :func:`fixture_samples`; this tree has no v1 encoder, so the file
  cannot be regenerated, only replayed.

Replaying the v2 spill must serve an export byte-identical to folding
the same samples in-process.  Replaying the v1 spill must deliver the
clean prefix (the ``push_db`` frame) and count everything after it as
one spill-replay drop, on both ends, with one warning that names the
spill file — never a traceback, never a silent loss.
"""

import logging
import os
import random
import shutil

import pytest

from repro.analysis.database import ProfileDatabase
from repro.analysis.persistence import canonical_json
from repro.errors import ProtocolError
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import GroupRecord, PairedRecord, ProfileRecord
from repro.service.client import ProfileClient
from repro.service.protocol import (encode_frame, encode_probe_frame,
                                    plan_push_frames, push_db_frame,
                                    report_frame, split_frames)
from repro.service.server import ServerThread

FORMATS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data", "formats")
V2_SPILL = os.path.join(FORMATS, "spill_v2.bin")
V1_SPILL = os.path.join(FORMATS, "spill_v1.bin")

FIXTURE_READINGS = {"cpu0.core.retired": 4096, "cpu0.core.ipc": 0.75,
                    "profileme.registers.abort_reason": "none"}
FIXTURE_TICK = 5000
REPORTED_DROPS = 2  # the v2 spill's report frame


def _record(rng, index):
    events = rng.choice([Event.RETIRED,
                         Event.RETIRED | Event.DCACHE_MISS,
                         Event.RETIRED | Event.MISPREDICT,
                         Event.ABORTED | Event.BAD_PATH])
    load = Event.DCACHE_MISS in events
    return ProfileRecord(
        context=0, pc=0x1000 + 4 * rng.randrange(24),
        op=Opcode.LD if load else rng.choice([Opcode.ADD, Opcode.BNE]),
        addr=0x8000 + 8 * rng.randrange(64) if load else None,
        events=events,
        abort_reason=(AbortReason.NONE if Event.RETIRED in events
                      else AbortReason.FETCH_DISCARD),
        history=rng.randrange(16),
        fetch_to_map=rng.randrange(1, 4), map_to_data_ready=rng.randrange(3),
        data_ready_to_issue=rng.randrange(3), issue_to_retire_ready=1,
        retire_ready_to_retire=rng.randrange(1, 6),
        load_issue_to_completion=rng.randrange(20, 90) if load else None,
        fetch_cycle=100 * index, done_cycle=100 * index + rng.randrange(5, 60))


def fixture_samples():
    """Single, paired and group samples drawn from one fixed seed."""
    rng = random.Random(1997)
    samples = [_record(rng, index) for index in range(40)]
    for index in range(40, 50, 2):
        samples.append(PairedRecord(
            first=_record(rng, index), second=_record(rng, index + 1),
            intra_pair_cycles=rng.randrange(1, 30),
            intra_pair_distance=rng.randrange(1, 10)))
    samples.append(GroupRecord(
        records=(_record(rng, 50), None, _record(rng, 52)),
        fetch_offsets=(0, None, 9), distances=(4, 5)))
    return samples


def fixture_document():
    """The ``push_db`` payload: an already-aggregated profile."""
    rng = random.Random(30)
    database = ProfileDatabase()
    for index in range(12):
        database.add(_record(rng, index))
    return database.to_dict()


def v2_spill_bytes():
    samples = fixture_samples()
    frames = [frame for frame, _ in plan_push_frames(samples[:20])]
    frames.append(encode_probe_frame(FIXTURE_READINGS, FIXTURE_TICK))
    frames.append(encode_frame(push_db_frame(fixture_document())))
    frames.extend(frame for frame, _ in plan_push_frames(samples[20:]))
    frames.append(encode_frame(report_frame(replay_dropped=REPORTED_DROPS)))
    return b"".join(frames)


def _read(path):
    with open(path, "rb") as stream:
        return stream.read()


def _replay(fixture, tmp_path):
    """Replay *fixture* as a client's spill into a one-shard server;
    returns (client stats, server stats dict, export document)."""
    spill = str(tmp_path / "spill.bin")
    shutil.copyfile(fixture, spill)
    with ServerThread(port=0, shards=1) as server:
        with ProfileClient(server.address, spill_path=spill) as client:
            client.drain()  # connects, which replays the spill first
            stats = client.query("stats")["stats"]
            export = client.query("export")["database"]
    assert os.path.getsize(spill) == 0  # truncated after replay
    return client.stats, stats, export


class TestV2Spill:
    def test_fixture_regenerates_byte_identically(self):
        # The v2 encoding is canonical, so the committed file is exactly
        # what today's encoders write for the same inputs.
        assert v2_spill_bytes() == _read(V2_SPILL)

    def test_fixture_holds_every_spillable_frame_kind(self):
        frames, clean = split_frames(_read(V2_SPILL))
        assert clean == os.path.getsize(V2_SPILL)
        assert [frame["kind"] for frame in frames] == [
            "push", "probe_push", "push_db", "push", "report"]

    def test_replay_serves_the_in_process_export(self, tmp_path):
        reference = ProfileDatabase()
        for sample in fixture_samples():
            reference.add(sample)
        reference.add_probe_readings(FIXTURE_READINGS, FIXTURE_TICK)
        reference.merge(ProfileDatabase.from_dict(fixture_document()))

        client_stats, stats, export = _replay(V2_SPILL, tmp_path)
        assert canonical_json(export) == canonical_json(reference.to_dict())
        assert client_stats.replayed_batches == 5
        assert client_stats.replay_dropped == 0
        assert stats["replay_dropped"] == REPORTED_DROPS
        assert stats["db_merges"] == 1 and stats["probe_pushes"] == 1
        assert stats["protocol_errors"] == 0


class TestV1Spill:
    def test_v1_data_frames_are_a_typed_error(self):
        with pytest.raises(ProtocolError, match="wire v2"):
            split_frames(_read(V1_SPILL))
        frames, clean = split_frames(_read(V1_SPILL), strict=False)
        assert [frame["kind"] for frame in frames] == ["push_db"]
        assert 0 < clean < os.path.getsize(V1_SPILL)

    def test_replay_delivers_prefix_and_counts_the_rest(self, tmp_path):
        client_stats, stats, export = _replay(V1_SPILL, tmp_path)
        assert client_stats.replayed_batches == 1  # the push_db frame
        assert client_stats.replay_dropped == 1
        assert stats["replay_dropped"] == 1
        assert stats["db_merges"] == 1
        assert stats["protocol_errors"] == 0  # v1 frames never sent
        assert canonical_json(export) == canonical_json(fixture_document())

    def test_replay_drop_names_the_spill_file(self, tmp_path, caplog):
        _, clean = split_frames(_read(V1_SPILL), strict=False)
        with caplog.at_level(logging.WARNING, logger="repro.service.client"):
            _replay(V1_SPILL, tmp_path)
        [warning] = [record.getMessage() for record in caplog.records
                     if record.levelno == logging.WARNING]
        assert str(tmp_path / "spill.bin") in warning
        assert "byte %d of %d" % (clean, os.path.getsize(V1_SPILL)) \
            in warning


if __name__ == "__main__":
    with open(V2_SPILL, "wb") as out:
        out.write(v2_spill_bytes())
    print("wrote %s" % V2_SPILL)
