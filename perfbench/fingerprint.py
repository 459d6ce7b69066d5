"""Numerics fingerprint: what a run's bytes and timings are relative to.

Exported bytes and speed both depend on numpy/scipy, the BLAS build and
the number of threads BLAS actually runs with.  The effective thread
count is read from every OpenBLAS the process has loaded, through the
library's own ``*_get_num_threads`` entry point (``ctypes``; no
``threadpoolctl`` needed).  Nothing here changes the thread count: the
benchmark runs in the user's default environment.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _openblas_symbol(lib, base: str, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{base}{suffix}", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn
    return None


def loaded_openblas() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its config string,
    core type and effective thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()
                            and ".so" in line})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _openblas_symbol(lib, "get_num_threads", ctypes.c_int)
        config = _openblas_symbol(lib, "get_config", ctypes.c_char_p)
        core = _openblas_symbol(lib, "get_corename", ctypes.c_char_p)
        if threads is None:
            continue
        out.append({
            "library": os.path.basename(path),
            "config": config().decode() if config else None,
            "core": core().decode() if core else None,
            "threads": int(threads()),
        })
    return out


def _blas_build(module) -> dict:
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {}
    return {"name": info.get("name"), "version": info.get("version")}


def numerics_fingerprint() -> dict:
    """The fingerprint stamped on every benchmark result."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 — loads scipy's own BLAS

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    loaded = loaded_openblas()
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_loaded": loaded,
        "blas_threads": sorted({lib["threads"] for lib in loaded}),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }
