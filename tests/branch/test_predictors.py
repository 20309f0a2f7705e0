"""Tests for branch predictors, BTB and RAS."""

import random

import pytest

from repro.branch.predictors import (BranchPredictor, BranchTargetBuffer,
                                     GshareDirectionPredictor,
                                     PredictorConfig, ReturnAddressStack,
                                     StaticDirectionPredictor)
from repro.errors import ConfigError

from tests.conftest import counting_loop


class TestGshare:
    def test_learns_always_taken(self):
        predictor = GshareDirectionPredictor(PredictorConfig())
        for _ in range(4):
            predictor.train(0x100, 0, True)
        assert predictor.predict(0x100, 0)

    def test_learns_always_not_taken(self):
        predictor = GshareDirectionPredictor(PredictorConfig())
        for _ in range(4):
            predictor.train(0x100, 0, False)
        assert not predictor.predict(0x100, 0)

    def test_history_disambiguates_alternating_branch(self):
        """With history, a strictly alternating branch becomes predictable."""
        predictor = GshareDirectionPredictor(PredictorConfig())
        history = 0
        # Train: outcome = opposite of last outcome.
        outcome = True
        for _ in range(64):
            predictor.train(0x200, history, outcome)
            history = ((history << 1) | int(outcome)) & 0xFFF
            outcome = not outcome
        correct = 0
        for _ in range(32):
            if predictor.predict(0x200, history) == outcome:
                correct += 1
            predictor.train(0x200, history, outcome)
            history = ((history << 1) | int(outcome)) & 0xFFF
            outcome = not outcome
        assert correct == 32

    def test_counters_saturate(self):
        predictor = GshareDirectionPredictor(PredictorConfig())
        for _ in range(100):
            predictor.train(0, 0, True)
        predictor.train(0, 0, False)
        assert predictor.predict(0, 0)  # one not-taken doesn't flip

    def test_accuracy_tracking(self):
        predictor = GshareDirectionPredictor(PredictorConfig())
        predictor.record_outcome(True)
        predictor.record_outcome(False)
        assert predictor.accuracy == pytest.approx(0.5)
        assert GshareDirectionPredictor(PredictorConfig()).accuracy == 0.0


def _split_observe(direction, pc, history, taken):
    """What ``observe`` must equal: predict, train, record_outcome."""
    predicted = direction.predict(pc, history)
    direction.train(pc, history, taken)
    direction.record_outcome(predicted == taken)
    return predicted


def _direction_state(direction):
    return (list(getattr(direction, "_counters", [])), direction.lookups,
            direction.correct)


@pytest.mark.parametrize("make", (
    lambda: GshareDirectionPredictor(PredictorConfig(counter_index_bits=4)),
    lambda: StaticDirectionPredictor(counting_loop(iterations=3),
                                     hints={8: False}),
))
def test_observe_equals_predict_train_record(make):
    fused, split = make(), make()
    rng = random.Random(5)
    for _ in range(400):
        pc = rng.randrange(0, 64, 4)
        history = rng.randrange(0, 1 << 12)
        taken = rng.random() < 0.6
        assert (fused.observe(pc, history, taken)
                == _split_observe(split, pc, history, taken))
        assert _direction_state(fused) == _direction_state(split)
    assert 0 < fused.correct < fused.lookups == 400


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64)
        assert btb.predict(0x40) is None
        btb.train(0x40, 0x800)
        assert btb.predict(0x40) == 0x800

    def test_aliasing_replaces(self):
        btb = BranchTargetBuffer(4)
        btb.train(0x0, 0x100)
        btb.train(0x0 + 4 * 4, 0x200)  # same index, different tag
        assert btb.predict(0x0) is None
        assert btb.predict(0x10) == 0x200

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            BranchTargetBuffer(3)


class TestRas:
    def test_lifo_order(self):
        ras = ReturnAddressStack(8)
        ras.push(0x10)
        ras.push(0x20)
        assert ras.pop() == 0x20
        assert ras.pop() == 0x10
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_single_entry_keeps_newest(self):
        ras = ReturnAddressStack(1)
        ras.push(0xA)
        ras.push(0xB)
        assert ras.pop() == 0xB
        assert ras.pop() is None

    def test_deep_overflow_keeps_last_n(self):
        ras = ReturnAddressStack(4)
        for address in range(100):
            ras.push(address)
        assert [ras.pop() for _ in range(5)] == [99, 98, 97, 96, None]

    def test_interleaved_push_pop_after_overflow(self):
        # Overflow must not disturb subsequent LIFO behaviour.
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # drops 1
        assert ras.pop() == 3
        ras.push(4)
        assert ras.pop() == 4
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            ReturnAddressStack(0)


class TestFacade:
    def test_bundles_components(self):
        predictor = BranchPredictor()
        predictor.train_conditional(0x10, 0, True, was_correct=True)
        assert predictor.direction.lookups == 1
        predictor.train_indirect(0x20, 0x400)
        assert predictor.predict_indirect(0x20) == 0x400

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PredictorConfig(history_bits=0)
