"""Figure 2: where do performance-counter interrupts attribute events?

Reproduces the section 2.2 experiment: a loop with one (cache-hitting)
memory read followed by hundreds of nops, with a D-cache-reference event
counter.  The paper's result:

* in-order Alpha 21164 — almost all samples land on one instruction a
  fixed distance after the load (sharp peak, wrong place);
* out-of-order Pentium Pro — samples smear over ~25 instructions;
* ProfileMe — events are attributed *exactly* to the load.

Also reproduces the "blind spot" observation: interrupts deferred across
an uninterruptible range pile up on the first instruction after it.
"""

from collections import Counter

from benchmarks.conftest import run_once
from repro.analysis.reports import histogram_ascii
from repro.counters.counter import CounterConfig, CounterEvent
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import fig2_loop

ITERATIONS = 400
NOPS = 200


def _offsets(counter, load_pc):
    return Counter((s.delivered_pc - load_pc) // 4 for s in counter.samples)


def _experiment():
    program, load_pc = fig2_loop(iterations=ITERATIONS, nop_count=NOPS)
    results = {}

    counter = run_session(SessionSpec(
        program=program,
        counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                              skid_cycles=6),
        core_kind="inorder")).counter
    results["inorder"] = _offsets(counter, load_pc)

    counter = run_session(SessionSpec(
        program=program,
        counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                              skid_cycles=6, skid_jitter_cycles=8),
        core_kind="ooo")).counter
    results["ooo"] = _offsets(counter, load_pc)

    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=40, seed=7)))
    profileme = Counter(
        (r.pc - load_pc) // 4 for r in run.records
        if r.op is not None and r.op.value == "ld")
    results["profileme"] = profileme

    # Blind spot: defer interrupts across the whole loop body.
    counter = run_session(SessionSpec(
        program=program,
        counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                              skid_cycles=6),
        uninterruptible=[(0, program.pc_limit - 8)])).counter
    results["blind_spot"] = _offsets(counter, load_pc)
    return results


def test_fig2_attribution(benchmark):
    results = run_once(benchmark, _experiment)

    print("\n=== Figure 2: delivered-PC offset from the causing load "
          "(instructions) ===")
    for name in ("inorder", "ooo", "profileme", "blind_spot"):
        print("\n-- %s --" % name)
        print(histogram_ascii(results[name]))

    inorder, ooo, profileme = (results["inorder"], results["ooo"],
                               results["profileme"])
    # In-order: one sharp (mis-attributed) peak.
    assert len(inorder) == 1
    assert next(iter(inorder)) > 0
    # Out-of-order: smeared over many instructions, no dominant peak.
    assert len(ooo) >= 5
    assert max(ooo.values()) / sum(ooo.values()) < 0.5
    assert max(ooo) - min(ooo) >= 15
    # ProfileMe: every memory sample attributed exactly to the load.
    assert set(profileme) == {0}
    # Blind spot: every delivery lands at/after the uninterruptible range.
    assert all(offset >= NOPS for offset in results["blind_spot"])
