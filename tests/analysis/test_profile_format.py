"""Profile-document format fixtures: what ``repro-profile`` exports hold.

``tests/data/formats/profile_v1.json`` is the canonical JSON of the flat
version-1 document, and ``profile_v2.json`` that of the bucketed
version-2 document, each from one small paired ProfileMe session on the
histogram kernel (:func:`fixture_spec`).  Both retain effective
addresses; the bucketed one also caps its live buckets, so it carries
evicted samples.  Regenerate them from the repository root with
``PYTHONPATH=src python -m tests.analysis.test_profile_format``.

Three checks pin each: loading the document and exporting it again is
byte-identical, simulating the spec today produces the same bytes, and
a service shard folding that session's push payloads exports the same
bytes too.
"""

import json
import os

import pytest

from repro.analysis.persistence import (canonical_json, database_from_dict,
                                        database_to_dict)
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.service.fold import ShardFolder
from repro.service.protocol import encode_push_payload
from repro.workloads import classic_kernel

FORMATS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data", "formats")

# Fixture name -> the database settings its session runs with.
SETTINGS = {
    "profile_v1.json": dict(keep_addresses=4),
    "profile_v2.json": dict(keep_addresses=2, rollup_interval=400,
                            retain_buckets=3),
}

# Samples per push payload: small, so the session spans many payloads.
BATCH = 16


def fixture_spec(name):
    return SessionSpec(
        program=classic_kernel("histogram", items=400, buckets=16)[0],
        profile=ProfileMeConfig(mean_interval=40, paired=True, seed=7),
        label="profile-format-fixture", **SETTINGS[name])


def fixture_document(name):
    """The document the session of :func:`fixture_spec` exports."""
    return database_to_dict(run_session(fixture_spec(name)).database)


def _committed_text(name):
    with open(os.path.join(FORMATS, name)) as stream:
        return stream.read()


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_committed_document_reexports_byte_identical(name):
    text = _committed_text(name)
    database = database_from_dict(json.loads(text))
    assert canonical_json(database_to_dict(database)) == text


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_session_reproduces_committed_document(name):
    assert canonical_json(fixture_document(name)) == _committed_text(name)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_shard_fold_of_push_payloads_exports_committed_document(name):
    samples = run_session(fixture_spec(name)).driver.pairs
    folder = ShardFolder(**SETTINGS[name])
    for start in range(0, len(samples), BATCH):
        payload, members = encode_push_payload(samples[start:start + BATCH])
        assert folder.fold_payload(payload) == members
    assert canonical_json(database_to_dict(folder.snapshot_database())) \
        == _committed_text(name)


def test_fixtures_cover_addresses_and_eviction():
    v1, v2 = (json.loads(_committed_text(name))
              for name in ("profile_v1.json", "profile_v2.json"))
    assert v1["version"] == 1 and v1["keep_addresses"] == 4
    assert any(len(profile["addresses"]) == 4
               for profile in v1["per_pc"].values())
    assert v2["version"] == 2 and v2["evicted_samples"] > 0
    assert v2["addresses"]


if __name__ == "__main__":
    for fixture in sorted(SETTINGS):
        with open(os.path.join(FORMATS, fixture), "w") as stream:
            stream.write(canonical_json(fixture_document(fixture)))
