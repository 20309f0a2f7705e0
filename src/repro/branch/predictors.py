"""Branch prediction: gshare direction predictor, BTB, return-address stack.

The fetch unit predicts every control-flow instruction it decodes:

* conditional branches — gshare (global history XOR PC indexing a 2-bit
  counter table), the style of predictor the 21264 generation shipped;
* direct branches/calls — target is static, always taken;
* indirect jumps — branch target buffer keyed by PC;
* returns — return-address stack.

Mispredictions are the aborts that make fetched-but-not-retired samples
appear in ProfileMe profiles, so prediction quality directly shapes the
experiments.

Warm-state contract: a :class:`BranchPredictor` instance (direction
counters, BTB, RAS) is part of the cross-engine warm state
(:class:`repro.cpu.warm.WarmState`).  In two-speed mode the functional
fast-forward trains it at retire order and the detailed windows train it
through their own fetch/retire pipeline; both engines tolerate the
other's RAS skew exactly as the hardware tolerates squashed calls (see
:class:`ReturnAddressStack`).
"""

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.probes.props import ratio


@dataclass(frozen=True)
class PredictorConfig:
    """Sizing of the prediction structures."""

    history_bits: int = 12  # paper: "typically between 8 to 12"
    counter_index_bits: int = 12  # 4096-entry 2-bit counter table
    btb_entries: int = 512
    ras_entries: int = 16

    def __post_init__(self):
        if self.history_bits < 1 or self.history_bits > 30:
            raise ConfigError("history_bits out of range: %d"
                              % self.history_bits)
        if self.counter_index_bits < 1:
            raise ConfigError("counter_index_bits must be >= 1")


class GshareDirectionPredictor:
    """Two-bit saturating counters indexed by PC XOR global history."""

    def __init__(self, config):
        self.config = config
        self._mask = (1 << config.counter_index_bits) - 1
        # 2-bit counters initialized weakly-taken: loops predict well fast.
        self._counters = [2] * (1 << config.counter_index_bits)
        self.lookups = 0
        self.correct = 0

    def _index(self, pc, history):
        return ((pc >> 2) ^ history) & self._mask

    def predict(self, pc, history):
        """Predicted direction for the branch at *pc*."""
        return self._counters[self._index(pc, history)] >= 2

    def train(self, pc, history, taken):
        """Update the counter with the resolved direction."""
        index = self._index(pc, history)
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1

    def record_outcome(self, was_correct):
        self.lookups += 1
        if was_correct:
            self.correct += 1

    def observe(self, pc, history, taken):
        """Predict, train and record one retired branch -> predicted.

        The same updates as ``predict`` then ``train`` then
        ``record_outcome`` in one call: the warm paths, which resolve a
        branch the moment they see it, call this once per conditional.
        """
        index = ((pc >> 2) ^ history) & self._mask
        counters = self._counters
        counter = counters[index]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                counters[index] = counter + 1
        elif counter > 0:
            counters[index] = counter - 1
        self.lookups += 1
        if predicted == taken:
            self.correct += 1
        return predicted

    @property
    def accuracy(self):
        return ratio(self.correct, self.lookups)


class BranchTargetBuffer:
    """Direct-mapped PC -> predicted target store for indirect jumps."""

    def __init__(self, entries):
        if entries & (entries - 1) or entries < 1:
            raise ConfigError("BTB entries must be a power of two")
        self._entries = entries
        self._tags = [None] * entries
        self._targets = [0] * entries

    def _index(self, pc):
        return (pc >> 2) & (self._entries - 1)

    def predict(self, pc):
        """Predicted target of the jump at *pc*, or None on BTB miss."""
        index = self._index(pc)
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def train(self, pc, target):
        index = self._index(pc)
        self._tags[index] = pc
        self._targets[index] = target


class ReturnAddressStack:
    """Bounded LIFO of predicted return addresses.

    No mispredict repair is modelled: a squashed call/return leaves the
    stack slightly stale, exactly the behaviour of simple hardware RAS
    implementations of the era.  The resulting occasional return
    misprediction is a realistic abort source for the profiles.
    """

    def __init__(self, entries):
        if entries < 1:
            raise ConfigError("RAS needs >= 1 entry")
        self._entries = entries
        # maxlen makes overflow drop the *oldest* entry in O(1); the
        # old list.pop(0) did the same shift in O(entries) per push.
        self._stack = deque(maxlen=entries)

    def push(self, address):
        self._stack.append(address)

    def pop(self):
        """Predicted return address, or None if the stack is empty."""
        if not self._stack:
            return None
        return self._stack.pop()


class StaticDirectionPredictor:
    """Profile-hinted static prediction (no dynamic state).

    The baseline is the classic backward-taken/forward-not-taken (BTFN)
    heuristic, precomputed per conditional branch from the program image;
    *hints* (pc -> predicted-taken) override it.  Section 7's
    "guiding traditional compiler optimizations ... code generation"
    covers exactly this: branch-direction profiles compiled into static
    hint bits (cf. the paper's Young & Smith citation).
    """

    def __init__(self, program, hints=None):
        self._table = {}
        for pc, _ in program.listing():
            inst = program.fetch(pc)
            if inst.is_conditional:
                self._table[pc] = inst.target < pc  # BTFN default
        for pc, taken in (hints or {}).items():
            if pc in self._table:
                self._table[pc] = bool(taken)
        self.lookups = 0
        self.correct = 0

    def predict(self, pc, history):
        return self._table.get(pc, False)

    def train(self, pc, history, taken):
        """Static prediction has no state to train."""

    def record_outcome(self, was_correct):
        self.lookups += 1
        if was_correct:
            self.correct += 1

    def observe(self, pc, history, taken):
        """Predict and record one retired branch -> predicted."""
        predicted = self._table.get(pc, False)
        self.lookups += 1
        if predicted == taken:
            self.correct += 1
        return predicted

    @property
    def accuracy(self):
        return ratio(self.correct, self.lookups)


class BranchPredictor:
    """Facade bundling direction predictor, BTB and RAS.

    *direction* overrides the default gshare direction predictor (any
    object with predict/train/record_outcome/observe), e.g. a
    :class:`StaticDirectionPredictor` built from profile hints.
    """

    def __init__(self, config=None, direction=None):
        self.config = config or PredictorConfig()
        self.direction = direction or GshareDirectionPredictor(self.config)
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_entries)

    def predict_conditional(self, pc, history):
        return self.direction.predict(pc, history)

    def predict_indirect(self, pc):
        return self.btb.predict(pc)

    def train_conditional(self, pc, history, taken, was_correct):
        self.direction.train(pc, history, taken)
        self.direction.record_outcome(was_correct)

    def train_indirect(self, pc, target):
        self.btb.train(pc, target)

    @property
    def mispredict_rate(self):
        direction = self.direction
        return ratio(direction.lookups - direction.correct,
                     direction.lookups)

    def register_probes(self, registry, prefix="branch"):
        """Expose the direction predictor under ``branch.*``."""
        direction = self.direction
        registry.register(prefix + ".lookups",
                          lambda: direction.lookups,
                          kind="counter", unit="branches",
                          description="direction-predictor lookups")
        registry.register(prefix + ".correct",
                          lambda: direction.correct,
                          kind="counter", unit="branches",
                          description="correctly predicted directions")
        registry.register(prefix + ".accuracy",
                          lambda: direction.accuracy,
                          kind="fraction", unit="ratio",
                          description="correct / lookups")
        registry.register(prefix + ".mispredict_rate",
                          lambda: self.mispredict_rate,
                          kind="fraction", unit="ratio",
                          description="(lookups - correct) / lookups")
