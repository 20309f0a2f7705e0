"""Child process whose start-to-ready time is the workload's set-up cost.

Usage: python3 layerbench/setup_probe.py {detailed|twospeed|optimize}
(with the checkout's ``src`` on PYTHONPATH).  Prints ``ready`` once the
state a user needs before the first simulated instruction exists.
"""

import sys


def profile_session(name, scale, **kwargs):
    """Run the workload's session through ``run_session`` with a budget of
    zero instructions: the program's own set-up path, up to the first
    simulated instruction and no further."""
    from repro.engine.session import SessionSpec, run_session
    from repro.workloads.suite import suite_program

    result = run_session(SessionSpec(
        program=suite_program(name, scale=scale), keep_records=False,
        max_retired=0, **kwargs))
    if result.stats.retired:
        raise RuntimeError("the set-up session simulated instructions")


def detailed():
    from repro.profileme.unit import ProfileMeConfig

    profile_session("gcc", 2, profile=ProfileMeConfig(mean_interval=100,
                                                      paired=True))


def twospeed():
    from repro.profileme.unit import ProfileMeConfig

    profile_session("compress", 56,
                    profile=ProfileMeConfig(mean_interval=50_000),
                    exec_mode="two-speed", window=400)


def optimize():
    # run_pgo has no way to stop before its first profiling session, so
    # this is what precedes it: imports, the program and the options.
    from repro.pgo.pipeline import PgoOptions, run_pgo  # noqa: F401
    from repro.workloads.suite import suite_program

    suite_program("compress", scale=1)
    PgoOptions()


KINDS = {"detailed": detailed, "twospeed": twospeed, "optimize": optimize}

if __name__ == "__main__":
    KINDS[sys.argv[1]]()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
