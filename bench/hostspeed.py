"""A fixed probe of the host's current speed, for host-normalised timings.

The benchmark host is a few cores of a shared machine whose speed drifts,
over seconds and over minutes, by up to half for interpreter-bound code and
by less for large-array numpy code.  Slow phases last longer than one
invocation and often longer than a run, so no statistic over a run's raw
times removes them.  ``Clock`` therefore times a fixed pure-Python integer
loop, which runs no code of the package and allocates nothing, before and
after every measured call, and scales each call's seconds by
``REFERENCE_S / mean of its two probes``: a timing reads in seconds on a
host on which the probe takes ``REFERENCE_S`` seconds (about the fast phase
of a 2-vCPU Intel Xeon virtual machine).  A change to the package moves the
timing and leaves the probe alone; a change of host speed moves both.
"""

from __future__ import annotations

import time
from typing import Callable

#: probe seconds on the reference host; sets only the scale of reported times
REFERENCE_S = 0.025

_STEPS = 150_000


def probe() -> float:
    """Seconds one run of the probe loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_STEPS):
        acc = (acc * 31 + i) % 1_000_003
        if acc & 1:
            acc += 7
    return time.perf_counter() - start


class Clock:
    """Measures calls between probes; keeps every probe time."""

    def __init__(self) -> None:
        probe()  # warm-up, discarded
        self.probes = [probe()]

    def measure(self, call: Callable[[], float]) -> tuple[float, float]:
        """Runs ``call``, which returns the seconds it measured itself, and
        returns those seconds raw and scaled to the reference host."""
        seconds = call()
        self.probes.append(probe())
        return seconds, seconds * 2.0 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
