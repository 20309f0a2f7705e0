"""Quickstart: profile a small program with ProfileMe.

Builds a tiny array-summing loop, runs it on the out-of-order core with
instruction sampling attached, and prints what the profiling software
sees: per-instruction sample counts, event rates, and the Table 1 latency
registers.

Run:  python examples/quickstart.py
"""

from repro.analysis.reports import latency_table
from repro.events import Event
from repro.engine.session import SessionSpec, run_session
from repro.isa import ProgramBuilder
from repro.profileme import ProfileMeConfig


def build_program():
    b = ProgramBuilder(name="quickstart")
    b.alloc("arr", 4096)
    b.begin_function("main")
    b.ldi(1, 2000)  # iterations
    b.li_addr(2, "arr")  # pointer
    b.ldi(3, 0)  # accumulator
    b.label("loop")
    b.ld(4, 2, 0)  # load (stride of one cache line: misses often)
    b.mul(5, 4, 4)  # long-latency op fed by the load
    b.add(3, 3, 5)
    b.lda(2, 2, 64)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


def main():
    program = build_program()
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=25, seed=1)))

    core = run.core
    print("Simulated %d instructions in %d cycles (IPC %.2f), "
          "%d aborted on wrong paths, %d branch mispredicts."
          % (core.retired, core.cycle, core.ipc, core.aborted,
             core.mispredicts))
    print("ProfileMe delivered %d samples via %d interrupts.\n"
          % (run.driver.delivered, run.unit.stats.interrupts))

    print("Top instructions by sampled D-cache misses:")
    for pc, count in run.database.top_by_event(Event.DCACHE_MISS, limit=3):
        print("  %#06x  %-22s %3d miss samples"
              % (pc, program.fetch(pc).disassemble(), count))

    print()
    print(latency_table(run.database, program=program))


if __name__ == "__main__":
    main()
