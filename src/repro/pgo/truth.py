"""Ground-truth adapter: exact counts in ProfileDatabase clothing.

The sampled-vs-ground-truth comparison (:mod:`repro.pgo.compare`) wants
to run the *same* planning code on exact counts that it runs on sampled
profiles.  :func:`database_from_truth` synthesizes a
:class:`~repro.analysis.database.ProfileDatabase` from a
:class:`~repro.analysis.groundtruth.GroundTruthCollector`, with every
fetched instruction standing in for one "sample":

* ``samples`` = exact fetched count, so the database's implied sampling
  interval is 1 (``total_samples`` = total fetched);
* event counts are the collector's exact counts (``RETIRED``/``ABORTED``
  from the dedicated counters, the rest from its tracked-event table);
* ``taken_count`` is the exact ``BRANCH_TAKEN`` count, making the
  direction ratio the true one;
* the ``load_issue_to_completion`` latency aggregate is synthesized for
  load PCs from the collector's fetch->retire-ready sums, so
  :func:`~repro.analysis.optimize.classify_loads` sees the exact
  retired-instance count and a meaningful (if differently-defined) mean
  latency.  The classifier only thresholds on count and the D-miss
  fraction, both exact here.
"""

from repro.analysis.database import (LatencyAggregate, PcProfile,
                                     ProfileDatabase)
from repro.events import Event


def database_from_truth(truth, program=None):
    """Build an exact-count ProfileDatabase from *truth*.

    *program* (optional) restricts the synthetic load-latency aggregate
    to PCs that are actually loads, keeping
    :func:`~repro.analysis.optimize.classify_loads` output clean; without
    it every PC with latency data gets one (harmless for planning, which
    re-checks opcodes).
    """
    database = ProfileDatabase()
    for pc, pc_truth in truth.per_pc.items():
        profile = PcProfile(pc=pc)
        profile.samples = pc_truth.fetched
        if pc_truth.retired:
            profile.events[Event.RETIRED] = pc_truth.retired
        if pc_truth.aborted:
            profile.events[Event.ABORTED] = pc_truth.aborted
        for flag, count in pc_truth.events.items():
            if count:
                profile.events[flag] = (profile.events.get(flag, 0)
                                        + count)
        profile.taken_count = pc_truth.events.get(Event.BRANCH_TAKEN, 0)
        if pc_truth.latency_count:
            is_load = (program is None
                       or (program.contains_pc(pc)
                           and program.fetch(pc).is_load))
            if is_load:
                aggregate = LatencyAggregate()
                aggregate.count = pc_truth.latency_count
                aggregate.total = pc_truth.latency_sum
                # Sum of squares is not tracked exactly; the planners
                # never read the variance, so zero is safe here.
                aggregate.total_sq = 0
                profile.latencies["load_issue_to_completion"] = aggregate
        database.set_profile(pc, profile)
        database.total_samples += profile.samples
    return database
