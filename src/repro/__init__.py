"""ProfileMe reproduction package.

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure, and
docs/ for prose deep-dives (hardware model, statistics, workloads).

The most common entry points are re-exported here::

    from repro import ProfileMeConfig, SessionSpec, run_session, \
        suite_program

    result = run_session(SessionSpec(
        program=suite_program("gcc"),
        profile=ProfileMeConfig(mean_interval=200, paired=True)))
"""

# repro.profileme loads before repro.engine: the engine's cores import
# the ProfileMe unit, which imports the engine's probe bus.
from repro.profileme import (GroupRecord, PairedRecord, ProfileMeConfig,
                             ProfileRecord)
from repro.engine.session import SessionSpec, run_session
from repro.workloads import (classic_kernel, fig2_loop, fig7_three_loops,
                             stall_kernel, suite_program)

__version__ = "1.0.0"

__all__ = [
    "GroupRecord",
    "PairedRecord",
    "ProfileMeConfig",
    "ProfileRecord",
    "SessionSpec",
    "classic_kernel",
    "fig2_loop",
    "fig7_three_loops",
    "run_session",
    "stall_kernel",
    "suite_program",
]
