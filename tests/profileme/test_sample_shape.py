"""The sample-shape helpers and the sinks that read samples through them.

A delivered sample is a single ProfileRecord, a PairedRecord (possibly
missing its second member) or an N-way GroupRecord (possibly missing
members).  Every software consumer must agree with
``sample_records``/``sample_pairs`` on what each shape holds.
"""

import dataclasses

import pytest

from repro.analysis.concurrency import PairAnalyzer
from repro.analysis.database import ProfileDatabase
from repro.analysis.pipeline_state import PipelineStateEstimator
from repro.profileme.driver import ProfileMeDriver
from repro.profileme.registers import (GroupRecord, PairedRecord,
                                       sample_pairs, sample_records,
                                       shift_sample)
from repro.profileme.unit import ProfileMeConfig, ProfileMeStats, draw_interval
from repro.service.protocol import encode_push_payload
from repro.utils.rng import SamplingRng

from tests.analysis.test_concurrency import record


def _record(pc, fetch_cycle=0):
    return dataclasses.replace(record(pc=pc), fetch_cycle=fetch_cycle,
                               done_cycle=fetch_cycle + 6)


SINGLE = _record(0x10)
COMPLETE_PAIR = PairedRecord(first=_record(0x20), second=_record(0x24, 3),
                             intra_pair_cycles=3, intra_pair_distance=2)
HALF_PAIR = PairedRecord(first=_record(0x30), second=None,
                         intra_pair_cycles=None, intra_pair_distance=None)
GAPPY_GROUP = GroupRecord(
    records=(_record(0x40), None, _record(0x48, 5), _record(0x4C, 9)),
    fetch_offsets=(0, None, 5, 9), distances=(2, 3, 4))

SHAPES = {"single": SINGLE, "complete-pair": COMPLETE_PAIR,
          "half-pair": HALF_PAIR, "gappy-group": GAPPY_GROUP}


def test_sample_records_per_shape():
    pcs = {name: [r.pc for r in sample_records(sample)]
           for name, sample in SHAPES.items()}
    assert pcs == {"single": [0x10], "complete-pair": [0x20, 0x24],
                   "half-pair": [0x30], "gappy-group": [0x40, 0x48, 0x4C]}


def test_sample_pairs_per_shape():
    assert sample_pairs(SINGLE) == ()
    assert sample_pairs(COMPLETE_PAIR) == (COMPLETE_PAIR,)
    assert sample_pairs(HALF_PAIR) == (HALF_PAIR,)
    members = [(p.first.pc, p.second.pc, p.intra_pair_cycles)
               for p in sample_pairs(GAPPY_GROUP)]
    assert members == [(0x40, 0x48, 5), (0x40, 0x4C, 9), (0x48, 0x4C, 4)]


def _usable(pairs):
    return [p for p in pairs
            if p.complete and p.intra_pair_cycles is not None]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_consumers_agree_with_the_shape_helpers(name):
    sample = SHAPES[name]
    records = sample_records(sample)
    pairs = sample_pairs(sample)

    assert encode_push_payload([sample])[1] == len(records)

    database = ProfileDatabase()
    database.add(sample)
    assert database.total_samples == len(records)

    driver = ProfileMeDriver()
    driver.handle_interrupt([sample])
    assert driver.all_single_records() == list(records)

    analyzer = PairAnalyzer(mean_interval=100, pair_window=96,
                            issue_width=4)
    analyzer.add(sample)
    assert analyzer.pairs_seen == len(pairs)
    assert analyzer.pairs_usable == len(_usable(pairs))

    estimator = PipelineStateEstimator()
    estimator.add(sample)
    assert estimator.anchors == 2 * len(_usable(pairs))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shift_sample_moves_every_member(name):
    sample = SHAPES[name]
    shifted = shift_sample(sample, 1000)
    assert type(shifted) is type(sample)
    before, after = sample_records(sample), sample_records(shifted)
    assert [r.pc for r in after] == [r.pc for r in before]
    assert [r.fetch_cycle for r in after] == [r.fetch_cycle + 1000
                                              for r in before]
    assert [r.done_cycle for r in after] == [r.done_cycle + 1000
                                             for r in before]
    assert shift_sample(sample, 0) is sample
    if isinstance(sample, GroupRecord):
        assert shifted.records[1] is None
        assert shifted.fetch_offsets == sample.fetch_offsets


def test_stats_merge_covers_every_field():
    names = [field.name for field in dataclasses.fields(ProfileMeStats)]
    total = ProfileMeStats(**{n: 10 + i for i, n in enumerate(names)})
    window = ProfileMeStats(**{n: 100 * (i + 1) for i, n in enumerate(names)})
    expected = {n: (max(10 + i, 100 * (i + 1))
                    if n == "max_concurrent_groups"
                    else 10 + i + 100 * (i + 1))
                for i, n in enumerate(names)}
    total.merge(window)
    assert dataclasses.asdict(total) == expected
    # The peak is a max, not a sum, whichever side holds it.
    low = ProfileMeStats(max_concurrent_groups=3)
    low.merge(ProfileMeStats(max_concurrent_groups=1))
    assert low.max_concurrent_groups == 3


@pytest.mark.parametrize("distribution", ["uniform", "geometric"])
def test_draw_interval_follows_the_configured_distribution(distribution):
    config = ProfileMeConfig(mean_interval=500, jitter=0.3,
                             distribution=distribution)
    rng, reference = SamplingRng(7), SamplingRng(7)
    draws = [draw_interval(config, rng) for _ in range(50)]
    if distribution == "geometric":
        expected = [reference.geometric_interval(500) for _ in range(50)]
    else:
        expected = [reference.interval(500, 0.3) for _ in range(50)]
    assert draws == expected

