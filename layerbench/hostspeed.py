"""Host speed, sampled by a fixed calibration loop between measurements.

The shared host this benchmark was built on changes speed in phases: a
fixed pure-Python loop takes 30-40% longer in slow phases lasting seconds,
and whole regimes minutes apart differed by 50% (measured on an x86_64
2-vCPU VM, CPython 3.11).  Raw host times then spread more between runs of
identical code than any useful bound.  So host-time metrics (all but the
query latencies of ``wl_ingest``) are reported at a *nominal* host speed:
the benchmark runs the calibration loop just before and just after each
measured interval and divides the interval by the mean speed factor of
those two samples, where factor 1 means the loop took ``NOMINAL_S``.
The loop is the benchmark's own code, so a change to the program moves
the measured interval and not the factor.  Raw medians and the factors are printed beside every result.
"""

import signal
import time

NOMINAL_S = 0.0175  # calibration loop time at nominal host speed
LOOP_ITERATIONS = 200_000
SAMPLE_EVERY_S = 0.5  # sampling period inside a measured call


def calibration_loop():
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


def nominal(seconds, before, after):
    """*seconds* measured between speed factors *before* and *after*,
    at nominal host speed."""
    return seconds * 2.0 / (before + after)


def nominal_stretches(stretches, factors):
    """Nominal length of consecutive stretches; ``factors`` holds the
    sample before the first stretch, between each two, and after the
    last."""
    if len(factors) != len(stretches) + 1:
        raise ValueError("need one more factor than stretches")
    return sum(nominal(stretch, before, after) for stretch, before, after
               in zip(stretches, factors, factors[1:]))


class HostSpeed:
    """Speed-factor samples of one run, in time order."""

    def __init__(self, clock=time.perf_counter, loop=calibration_loop,
                 sample_during=True):
        """*sample_during*: also sample inside measured calls.  Traced
        runs turn it off, so no sample lands inside a layer's span."""
        self.clock = clock
        self.loop = loop
        self.sample_during = sample_during
        self.factors = []

    def sample(self):
        """Run the calibration loop once; returns its speed factor."""
        start = self.clock()
        self.loop()
        end = self.clock()
        factor = (end - start) / NOMINAL_S
        self.factors.append(factor)
        return factor

    def latest(self):
        """The latest factor, sampling now if there is none yet."""
        return self.factors[-1] if self.factors else self.sample()

    def measure(self, func, *args, **kwargs):
        """Call *func*; returns (result, nominal seconds, raw seconds).

        The host speed is sampled just before the call (the latest sample,
        taken now if there is none), every ``SAMPLE_EVERY_S`` during it
        from a timer signal (unless ``sample_during`` is off), and right
        after it.  Host phases are shorter
        than a long call, so each stretch between two samples is brought
        to nominal speed by those two; the time spent sampling is left
        out of both results.
        """
        stretches, factors = [], [self.latest()]
        begun = [self.clock()]

        def on_timer(signum, frame):
            stretches.append(self.clock() - begun[0])
            factors.append(self.sample())
            begun[0] = self.clock()

        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        begun[0] = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        stretches.append(self.clock() - begun[0])
        factors.append(self.sample())
        return result, nominal_stretches(stretches, factors), sum(stretches)
