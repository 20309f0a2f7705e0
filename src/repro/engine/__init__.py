"""Shared simulation engine: one way to build, run, and observe a machine.

Every execution substrate in the repo — the out-of-order core, the
in-order core, the SMT machine, and the multiprogrammed session — runs
through this layer:

* :class:`ProbeBus` — per-callback probe dispatch built at attach time,
  so callbacks a probe does not override are never called and a
  probe-free machine pays nothing for observability;
* :class:`CoreBase` — the run loop (cycle/retire limits, deadlock
  detection, resumable ``drain=False`` stepping) and probe plumbing
  shared by every core;
* :class:`SessionSpec` / :func:`run_session` — declarative description
  of one experiment (program + machine + profilers) and the only way to
  run one, including the per-context wiring of ``repro.multiprog``;
* :func:`run_sweep` — fans independent sessions across worker
  processes, resumably and fault-tolerantly: content-addressed result
  caching (:func:`spec_key` / :class:`ResultStore`), per-spec timeout
  and retry, chunked checkpoints, and live :class:`SweepMetrics`.

See ``docs/architecture.md`` for the design rationale.
"""

from repro.engine.bus import PROBE_CALLBACKS, ProbeBus, probe_overrides
from repro.engine.core import CoreBase

# The session/sweep layers sit *above* the cores (they import the
# machine models), while the cores themselves import CoreBase/ProbeBus
# from this package.  Loading them eagerly here would therefore be
# circular; PEP 562 lazy attributes keep `repro.engine.run_session`
# spelling working without the cycle.
_SESSION_EXPORTS = ("CoreStats", "ProfileStack",
                    "SessionResult", "SessionSpec", "attach_profileme",
                    "build_core", "profile_config_for_context",
                    "run_session")
_SWEEP_EXPORTS = ("ResultStore", "SpecOutcome", "SweepMetrics",
                  "SweepResult", "run_sweep", "spec_key")


def __getattr__(name):
    if name in _SESSION_EXPORTS:
        from repro.engine import session

        return getattr(session, name)
    if name in _SWEEP_EXPORTS:
        from repro.engine import sweep

        return getattr(sweep, name)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


__all__ = [
    "CoreBase",
    "CoreStats",
    "PROBE_CALLBACKS",
    "ProbeBus",
    "ProfileStack",
    "ResultStore",
    "SessionResult",
    "SessionSpec",
    "SpecOutcome",
    "SweepMetrics",
    "SweepResult",
    "attach_profileme",
    "build_core",
    "probe_overrides",
    "profile_config_for_context",
    "run_session",
    "run_sweep",
    "spec_key",
]
