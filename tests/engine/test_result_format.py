"""Session-result format fixture: what a sweep checkpoint holds on disk.

``tests/data/formats/session_result_v1.json`` is the canonical JSON
(``canonical_json``) of the ``repro-session-result`` v1 document that
``run_sweep`` stores for :func:`fixture_spec`: a paired ProfileMe session
on the pointer-chase kernel.  Regenerate it from the repository root with
``PYTHONPATH=src python -m tests.engine.test_result_format``.

Two checks pin it: loading the document and exporting it again is
byte-identical, and simulating the spec today produces the same bytes.
"""

import json
import os

from repro.analysis.persistence import (canonical_json, result_from_dict,
                                        result_to_dict)
from repro.engine.session import SessionSpec
from repro.engine.sweep import STATUS_OK, run_sweep
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import classic_kernel

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data", "formats",
    "session_result_v1.json")


def fixture_spec():
    return SessionSpec(
        program=classic_kernel("pointer_chase", nodes=64, hops=200)[0],
        profile=ProfileMeConfig(mean_interval=40, paired=True, seed=7),
        label="format-fixture")


def fixture_document():
    """The document ``run_sweep`` produces for :func:`fixture_spec`."""
    outcome = run_sweep([fixture_spec()], workers=1).outcomes[0]
    assert outcome.status == STATUS_OK, outcome.error
    return outcome.payload


def _committed_text():
    with open(FIXTURE) as stream:
        return stream.read()


def test_committed_document_reexports_byte_identical():
    text = _committed_text()
    data = json.loads(text)
    result = result_from_dict(data, spec=fixture_spec())
    assert canonical_json(result_to_dict(
        result, spec_key=data["spec_key"])) == text


def test_sweep_reproduces_committed_document():
    assert canonical_json(fixture_document()) == _committed_text()


if __name__ == "__main__":
    text = canonical_json(fixture_document())
    with open(FIXTURE, "w") as stream:
        stream.write(text)
