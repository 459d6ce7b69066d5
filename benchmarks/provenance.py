"""Shared provenance header for every ``bench_*.py`` merge.

Every benchmark that merges an entry into ``BENCH_perf.json`` stamps
the same machine-identity block — ``platform``, ``cpu_count``,
``single_cpu``, ``numpy``, ``scipy``, ``blas_threads`` — so trajectory
deltas can be attributed: a 10.1x -> 8.7x "regression" that coincides
with a cpu_count change, a numpy upgrade or a BLAS thread-count move is
a hardware/software move, not a code one.  ``tools/bench_report.py``
reads the trajectories back and prints exactly those deltas.

Import idiom (the benches run as scripts, so this directory is already
``sys.path[0]``)::

    from provenance import provenance_block
"""

from __future__ import annotations

import os
import platform


def provenance_block() -> dict:
    """The normalized provenance header merged by every benchmark
    entry.  Version lookups are gated, never imports-or-dies: a bench
    that itself needs numpy will fail on its own terms, not here."""
    cpus = os.cpu_count() or 1
    block: dict = {
        "platform": platform.platform(),
        "cpu_count": cpus,
        "single_cpu": cpus == 1,
    }
    try:
        import numpy
        block["numpy"] = numpy.__version__
    except ImportError:
        block["numpy"] = None
    try:
        import scipy
        block["scipy"] = scipy.__version__
    except ImportError:
        block["scipy"] = None
    try:
        from repro.numerics import fingerprint
        block["blas_threads"] = fingerprint()["blas_threads"]
    except ImportError:
        block["blas_threads"] = None
    return block
