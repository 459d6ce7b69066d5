"""One BLAS thread per process, and the numerics fingerprint.

Threaded OpenBLAS rounds the engine's small (n ~ 60) complex LU
differently and doubles CPU per unit without buying wall time, so
``import repro`` calls :func:`pin_blas`: every loaded OpenBLAS (numpy's
and scipy's bundled builds) is set to one thread through its own
``*_set_num_threads`` symbol, which works after numpy is imported,
where an environment variable would come too late.  The pin is
process-wide, has no knob and never raises; when it fails, the
fingerprint says ``pinned: False`` and ``repro doctor`` warns.

:func:`fingerprint_stamp` hashes the fingerprint once per process; the
result store stamps the short hash into every record's metadata (never
its key), so a store written under two numerics setups can be told
apart without invalidating a cache.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")

#: Whether :func:`pin_blas` set every loaded OpenBLAS to one thread.
_pinned = False


def _symbol(lib, base: str, restype, argtypes=()):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{base}{suffix}", None)
            if fn is not None:
                fn.argtypes = list(argtypes)
                fn.restype = restype
                return fn
    return None


def _openblas_libs() -> list:
    """``(path, CDLL)`` for every OpenBLAS mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()
                        and ".so" in line})
    return [(path, ctypes.CDLL(path)) for path in paths]


def pin_blas() -> bool:
    """Set every loaded OpenBLAS to one thread; never raises."""
    global _pinned
    try:
        import numpy  # noqa: F401 — maps numpy's OpenBLAS
        import scipy.linalg  # noqa: F401 — maps scipy's own OpenBLAS

        libs = _openblas_libs()
        setters = [_symbol(lib, "set_num_threads", None, (ctypes.c_int,))
                   for _path, lib in libs]
        for setter in setters:
            if setter is not None:
                setter(1)
        _pinned = bool(setters) and None not in setters
    except Exception:
        _pinned = False
    return _pinned


def fingerprint() -> dict:
    """What exported bytes are relative to: numpy/scipy versions, each
    loaded OpenBLAS with its config, core and effective thread count,
    and whether the pin took."""
    import numpy
    import scipy

    blas = []
    try:
        libs = _openblas_libs()
    except OSError:
        libs = []
    for path, lib in libs:
        threads = _symbol(lib, "get_num_threads", ctypes.c_int)
        config = _symbol(lib, "get_config", ctypes.c_char_p)
        core = _symbol(lib, "get_corename", ctypes.c_char_p)
        blas.append({
            "library": os.path.basename(path),
            "config": config().decode() if config else None,
            "core": core().decode() if core else None,
            "threads": int(threads()) if threads else None,
        })
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": sorted({lib["threads"] for lib in blas
                                if lib["threads"] is not None}),
        "pinned": _pinned,
    }


@functools.cache
def fingerprint_stamp() -> tuple[str, str]:
    """``(short hash, canonical JSON)`` of this process's
    :func:`fingerprint`, computed once."""
    text = json.dumps(fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], text
