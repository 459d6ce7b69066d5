"""Host-speed probe: the yardstick that makes runs comparable over time.

The virtual hosts this benchmark runs on change speed by up to 1.7x
from one minute to the next (other tenants share the physical cores);
CPU time inflates along with wall time, so no statistic taken inside a
run can remove it.  The timed window is therefore cut into epochs of
about a second, and between epochs — with the program idle — the
benchmark times a fixed pure-Python loop.  Every time measured in an
epoch is scaled by ``REFERENCE_S / probe`` (the mean of the probes
before and after it): times are reported in *reference seconds*, the
time the work would take on a host that runs the probe in
``REFERENCE_S``.

The probe touches neither the program nor numpy.  It runs right after
an epoch's last operation, when BLAS worker threads could still spin;
measured on a 2-vCPU host, a probe taken at once read the same (within
2 %) as one taken 150 ms later, at 1 and at 2 BLAS threads, so it needs
no idle gap (see perfbench/README.md).
"""

from __future__ import annotations

import statistics
import time

#: Probe time of the reference host (a 2-vCPU Xeon VM in its fast state).
REFERENCE_S = 1.6e-3
_LOOP = 20_000
_REPEATS = 15


def probe() -> float:
    """Median time of a fixed interpreter loop [s] (about 30 ms total)."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(_LOOP):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(probe_s: float) -> float:
    """Multiply a measured time by this to get reference seconds."""
    return REFERENCE_S / probe_s
