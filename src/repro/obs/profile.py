"""Per-phase engine profiling: counters and accumulated seconds.

Where tracing answers *when* (a timeline of spans), profiling answers
*how much in total*: Newton iterations, complex-LU factor/solve calls,
sparse-vs-dense path decisions, store payload reads, cache hits per
level — cheap monotone accumulators keyed by dotted names, summed over
a whole campaign or optimization run.

The hot-path contract matches :func:`repro.faults.harness.fault_point`:
disarmed, :func:`prof_count` / :func:`prof_add` are one module-global
``None`` check.  Inner loops count; only coarse boundaries time (a
``perf_counter`` pair costs more than a count, so per-iteration timing
is deliberately absent).

Arming is scoped: :meth:`Profiler.activate` (the ``--profile`` CLI
flag wraps one run), or process-wide via ``REPRO_OBS=profile`` (see
:mod:`repro.obs.harness`).
"""

from __future__ import annotations

import threading
import time


class Profiler:
    """Thread-safe named accumulators: integer counts and float seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._times: dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self._times[name] = self._times.get(name, 0.0) + seconds

    def snapshot(self) -> dict:
        """``{"counts": {...}, "times_s": {...}}``, keys sorted (stable
        for JSON round-trips and test assertions)."""
        with self._lock:
            return {
                "counts": dict(sorted(self._counts.items())),
                "times_s": dict(sorted(self._times.items())),
            }

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._times.clear()

    def activate(self) -> "_ActiveProfiler":
        """Context manager arming this profiler (restores the previous
        one on exit)."""
        return _ActiveProfiler(self)


class _ActiveProfiler:
    def __init__(self, profiler: Profiler) -> None:
        self.profiler = profiler
        self._previous: Profiler | None = None

    def __enter__(self) -> Profiler:
        self._previous = activate(self.profiler)
        return self.profiler

    def __exit__(self, *exc) -> None:
        _set_active(self._previous)


#: The single armed profiler; ``None`` keeps every hook inert.
_ACTIVE: Profiler | None = None


def _set_active(profiler: Profiler | None) -> None:
    global _ACTIVE
    _ACTIVE = profiler


def activate(profiler: Profiler) -> Profiler | None:
    """Arm ``profiler`` globally; returns the previously armed one."""
    previous = _ACTIVE
    _set_active(profiler)
    return previous


def deactivate() -> None:
    """Disarm profiling entirely."""
    _set_active(None)


def active_profiler() -> Profiler | None:
    return _ACTIVE


def prof_count(name: str, n: int = 1) -> None:
    """Bump a named counter.  Disarmed: one global load and a falsy
    check — safe inside Newton iterations and per-payload store reads."""
    p = _ACTIVE
    if p is None:
        return
    p.count(name, n)


def prof_add(name: str, seconds: float) -> None:
    """Accumulate seconds against a named phase (caller timed it)."""
    p = _ACTIVE
    if p is None:
        return
    p.add_time(name, seconds)


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timer:
    __slots__ = ("profiler", "name", "_t0")

    def __init__(self, profiler: Profiler, name: str) -> None:
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.profiler.add_time(self.name, time.perf_counter() - self._t0)
        return False


def timed(name: str):
    """``with timed("campaign.store_merge_s"):`` — coarse-phase timing.
    Disarmed returns a shared no-op handle (do not use per-iteration;
    that is what counts are for)."""
    p = _ACTIVE
    if p is None:
        return _NULL_TIMER
    return _Timer(p, name)


def format_profile(snapshot: dict) -> str:
    """Human-readable breakdown for ``--profile`` output: timed phases
    first (descending seconds), then counters."""
    lines = []
    times = snapshot.get("times_s") or {}
    counts = snapshot.get("counts") or {}
    if times:
        lines.append("profile — timed phases:")
        for name, s in sorted(times.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<32} {1e3 * s:10.2f} ms")
    if counts:
        lines.append("profile — counters:")
        for name, n in sorted(counts.items()):
            lines.append(f"  {name:<32} {n:>10}")
    if not lines:
        return "profile — empty (no instrumented work ran)"
    return "\n".join(lines)
