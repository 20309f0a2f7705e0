"""Fetch-countdown delivery against every-cycle delivery.

The out-of-order and in-order cores publish fetch slots to the ProfileMe
unit only on cycles where its major or minor counter can expire, and
count the other cycles down in bulk.  Adding any probe that overrides
``on_fetch_slots`` forces slot publication every cycle, which is the
reference behaviour: each case below runs once as is and once with such
a do-nothing probe, and requires the same sampling statistics, the same
delivered records and the same exported database.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import canonical_json
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.engine.session import SessionSpec, attach_profileme, run_session
from repro.profileme.fetch_counter import CountMode
from repro.profileme.unit import ProfileMeConfig, ProfileMeUnit
from repro.workloads import stall_kernel
from repro.workloads.suite import suite_program

from tests.conftest import counting_loop

INSTRUCTIONS = CountMode.INSTRUCTIONS
OPPORTUNITIES = CountMode.FETCH_OPPORTUNITIES


class EverySlot(Probe):
    """Subscribes to every fetch slot and ignores it."""

    def on_fetch_slots(self, cycle, slots):
        pass


@pytest.fixture
def every_cycle(monkeypatch):
    """Make every unit's core publish fetch slots every cycle."""
    attach = ProfileMeUnit.attach

    def attach_beside_full_subscriber(unit, core):
        core.add_probe(EverySlot())
        attach(unit, core)

    def install():
        monkeypatch.setattr(ProfileMeUnit, "attach",
                            attach_beside_full_subscriber)

    return install


def _outputs(spec):
    result = run_session(spec)
    stats = result.sampling_stats or result.unit.stats
    database = canonical_json(result.database.to_dict())
    return (stats, result.cycles, result.records,
            hashlib.sha256(database.encode()).hexdigest())


def _program(name):
    if name == "dep_chain":
        return stall_kernel("dep_chain", iterations=300)
    return suite_program(name, scale=1)


CASES = {
    "single-instructions": ("compress", {"mode": INSTRUCTIONS}, {}),
    "single-opportunities": ("compress", {"mode": OPPORTUNITIES}, {}),
    "geometric-short-intervals": (
        "li", {"mean_interval": 6, "distribution": "geometric"}, {}),
    "paired-instructions": ("li", {"paired": True}, {}),
    "paired-opportunities": ("li", {"paired": True,
                                    "mode": OPPORTUNITIES}, {}),
    "nway-instructions": ("compress", {
        "group_size": 3, "register_sets": 2, "buffer_depth": 4,
        "interrupt_cost_cycles": 20}, {}),
    "nway-opportunities": ("li", {
        "group_size": 3, "register_sets": 2, "buffer_depth": 4,
        "interrupt_cost_cycles": 20, "mode": OPPORTUNITIES}, {}),
    "two-speed-paired": ("compress", {"paired": True, "mean_interval": 400},
                         {"exec_mode": "two-speed", "window": 300}),
    "inorder-paired": ("li", {"paired": True}, {"core_kind": "inorder"}),
    "inorder-opportunities": ("compress", {"mode": OPPORTUNITIES},
                              {"core_kind": "inorder"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_countdown_matches_every_cycle_delivery(case, every_cycle):
    name, profile_options, spec_options = CASES[case]
    profile = ProfileMeConfig(**dict({"mean_interval": 40, "seed": 5},
                                     **profile_options))
    spec = SessionSpec(program=_program(name), profile=profile,
                       **spec_options)
    counted = _outputs(spec)
    every_cycle()
    published = _outputs(spec)
    assert counted[0].member_selections > 0
    assert counted == published


def test_smt_relay_reaches_the_unit(every_cycle):
    spec = SessionSpec(
        programs=(_program("compress"), _program("dep_chain")),
        core_kind="smt", profile=ProfileMeConfig(mean_interval=40, seed=5,
                                                 paired=True))
    relayed = _outputs(spec)
    every_cycle()
    assert relayed == _outputs(spec)
    stats = relayed[0]
    assert stats.tagged > 0 and stats.records_delivered > 0


_PROGRAM = counting_loop(iterations=300)


def _run_switching(config, switch_at):
    """Run with a full fetch subscriber attached during [a, b) cycles."""
    core = OutOfOrderCore(_PROGRAM)
    stack = attach_profileme(core, config)
    if switch_at is not None:
        start, stop = switch_at
        core.run(max_cycles=start, drain=False)
        probe = core.add_probe(EverySlot())
        core.run(max_cycles=stop - start, drain=False)
        core.remove_probe(probe)
    core.run()
    stack.unit.finalize()
    return stack.unit.stats, stack.driver.records, core.cycle


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.builds(
    ProfileMeConfig,
    mean_interval=st.integers(min_value=1, max_value=60),
    distribution=st.sampled_from(["uniform", "geometric"]),
    mode=st.sampled_from(list(CountMode)),
    group_size=st.integers(min_value=0, max_value=4),
    pair_window=st.integers(min_value=1, max_value=16),
    register_sets=st.integers(min_value=1, max_value=3),
    buffer_depth=st.integers(min_value=1, max_value=4),
    interrupt_cost_cycles=st.sampled_from([0, 7]),
    seed=st.integers(min_value=0, max_value=10_000)),
    start=st.integers(min_value=1, max_value=400),
    length=st.integers(min_value=1, max_value=400))
def test_full_subscriber_joining_and_leaving_midrun(config, start, length):
    """Switching between countdown and every-cycle delivery loses no slot."""
    assert (_run_switching(config, None)
            == _run_switching(config, (start, start + length)))


class CallCounts(ProfileMeUnit):
    """A unit that counts the callbacks its core delivers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {"fetch": 0, "retire": 0, "abort": 0, "cycle_end": 0}

    def on_fetch_slots(self, cycle, slots):
        self.calls["fetch"] += 1
        super().on_fetch_slots(cycle, slots)

    def on_retire(self, dyninst, cycle):
        self.calls["retire"] += 1
        super().on_retire(dyninst, cycle)

    def on_abort(self, dyninst, cycle):
        self.calls["abort"] += 1
        super().on_abort(dyninst, cycle)

    def on_cycle_end(self, cycle):
        self.calls["cycle_end"] += 1
        super().on_cycle_end(cycle)


@pytest.mark.parametrize("mode", list(CountMode))
def test_unit_is_called_only_when_it_can_act(mode):
    core = OutOfOrderCore(suite_program("li", scale=1))
    unit = core.add_probe(CallCounts(ProfileMeConfig(
        mean_interval=200, seed=2, paired=True, mode=mode)))
    cycles = core.run()
    unit.finalize()
    calls = unit.calls
    # Each expiry costs at most a few published cycles.
    assert unit.stats.member_selections > 0
    assert calls["fetch"] < 4 * (unit.stats.selections
                                 + unit.stats.member_selections)
    assert calls["fetch"] < cycles // 10
    # Retire/abort reach the unit only for the instructions it tagged.
    assert calls["retire"] + calls["abort"] == unit.stats.tagged
    assert calls["cycle_end"] < cycles // 10
