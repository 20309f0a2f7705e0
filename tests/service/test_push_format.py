"""Push-payload format fixture: the v2 sample encoding, pinned on disk.

``tests/data/formats/push_v2.bin`` is one binary ``push`` frame holding
:func:`fixture_samples` — single records, a complete pair, a half pair
and a gappy N-way group, with one- and multi-byte deltas, negative
deltas, a 2**64-1 pc wraparound, off-path records with no opcode, a
negative ``addr``, a 64-bit ``history`` and latencies that are None, 0
and >= 128.  The encoding is canonical, so today's encoder must write
exactly the committed bytes, and the decoder and the shard fold must
recover exactly the committed samples.  Regenerate the file from the
repository root with ``PYTHONPATH=src python -m
tests.service.test_push_format`` (only when the wire format changes on
purpose: a changed file means producers and servers of different
versions no longer agree).
"""

import os

from repro.analysis.database import ProfileDatabase
from repro.analysis.persistence import canonical_json
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import GroupRecord, PairedRecord, ProfileRecord
from repro.service.fold import ShardFolder
from repro.service.protocol import (decode_push_payload, plan_push_frames,
                                    split_frames)

FORMATS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data", "formats")
PUSH_V2 = os.path.join(FORMATS, "push_v2.bin")

_U64 = 2 ** 64 - 1


def _rec(pc, fetch, done, **overrides):
    base = dict(context=0, pc=pc, op=Opcode.ADD, addr=None,
                events=Event.RETIRED, abort_reason=AbortReason.NONE,
                history=0b1011, fetch_to_map=1, map_to_data_ready=0,
                data_ready_to_issue=2, issue_to_retire_ready=1,
                retire_ready_to_retire=3, load_issue_to_completion=None,
                fetch_cycle=fetch, done_cycle=done)
    base.update(overrides)
    return ProfileRecord(**base)


def fixture_samples():
    """Every sample shape and every varint edge the encoder has."""
    load = dict(op=Opcode.LD, events=Event.RETIRED | Event.DCACHE_MISS,
                load_issue_to_completion=300)
    off_path = dict(op=None, addr=None, events=Event.ABORTED | Event.BAD_PATH,
                    abort_reason=AbortReason.FETCH_DISCARD,
                    fetch_to_map=None, map_to_data_ready=None,
                    data_ready_to_issue=None, issue_to_retire_ready=None,
                    retire_ready_to_retire=None)
    return [
        # One-byte deltas, then multi-byte and negative ones.
        _rec(0x1000, 100, 110),
        _rec(0x1004, 104, 118, addr=0x8000, **load),
        _rec(0x2400, 90, 2000, addr=-16, history=2 ** 63 + 5, **load),
        _rec(0x1008, 10_000, 10_004, fetch_to_map=0, map_to_data_ready=0,
             retire_ready_to_retire=0, context=3),
        # pc 2**64-1 followed by a wrap to 0.
        _rec(_U64, 10_010, 10_020, history=_U64),
        _rec(0, 10_011, 10_012, **off_path),
        PairedRecord(first=_rec(0x100C, 10_020, 10_031),
                     second=_rec(0x1010, 10_022, 10_040, addr=0x8008, **load),
                     intra_pair_cycles=2, intra_pair_distance=1),
        PairedRecord(first=_rec(0x1014, 9_000, 9_001, **off_path),
                     second=None, intra_pair_cycles=None,
                     intra_pair_distance=None),
        PairedRecord(first=_rec(0x1018, 20_000, 20_200),
                     second=_rec(0x1000, 19_500, 19_600),
                     intra_pair_cycles=-500, intra_pair_distance=None),
        GroupRecord(records=(_rec(0x1020, 30_000, 30_009), None,
                             _rec(0x1028, 30_140, 30_145, **off_path),
                             _rec(0x2000, 30_400, 30_800, addr=0x9000,
                                  **load)),
                    fetch_offsets=(0, None, 140, 400), distances=(3, 200, 9)),
        GroupRecord(records=(None, None), fetch_offsets=(None, None),
                    distances=()),
        _rec(0x1024, 40_000, 40_003, data_ready_to_issue=128,
             issue_to_retire_ready=None),
    ]


def push_v2_bytes():
    return b"".join(frame for frame, _ in plan_push_frames(fixture_samples()))


def _read():
    with open(PUSH_V2, "rb") as stream:
        return stream.read()


def test_fixture_regenerates_byte_identically():
    assert push_v2_bytes() == _read()


def test_fixture_decodes_to_the_original_samples():
    [frame], clean = split_frames(_read())
    assert clean == len(_read())
    assert frame["kind"] == "push" and not frame["sync"]
    assert decode_push_payload(frame["payload"]) == fixture_samples()
    assert frame["count"] == 15  # every present pair and group member


def test_fixture_folds_like_the_in_process_database():
    [frame], _ = split_frames(_read())
    reference = ProfileDatabase(rollup_interval=10_000)
    for sample in fixture_samples():
        reference.add(sample)
    folder = ShardFolder(rollup_interval=10_000)
    assert folder.fold_payload(frame["payload"]) == frame["count"]
    assert canonical_json(folder.database.to_dict()) == \
        canonical_json(reference.to_dict())


if __name__ == "__main__":
    with open(PUSH_V2, "wb") as out:
        out.write(push_v2_bytes())
    print("wrote %s" % PUSH_V2)
