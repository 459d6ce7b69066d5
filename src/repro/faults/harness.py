"""Deterministic fault injection: named points, seeded triggers, zero
overhead when disarmed.

The production code is instrumented with **fault points** — bare calls
like ``fault_point("store.payload_read", key=key)`` at the places where
the real world fails: payload reads, sqlite transactions, tensor group
execution, journal writes, job execution.  Disarmed (the default), a
fault point is a single module-global ``None`` check.

Armed, an active :class:`FaultPlan` matches each firing point against
its :class:`FaultRule`\\ s.  A rule triggers an *action* — raise an
exception, sleep (hang simulation), or run a caller callable — gated by
deterministic knobs:

``times``
    trigger at most N times (the workhorse for "fail once, then work");
``after``
    skip the first N matching hits;
``when``
    a predicate over the fault point's keyword payload (e.g. trigger
    only on one job id);
``probability``
    a Bernoulli draw from the **plan's seeded RNG** — the same seed
    replays the same fault schedule, which is what lets the chaos
    benchmark quote a reproducible 5 % fault rate.

Arming is scoped three ways: the :meth:`FaultPlan.activate` context
manager (tests), :func:`activate`/:func:`deactivate` (long-lived
services), or the ``REPRO_FAULTS`` environment variable parsed at
import time (subprocess / CLI chaos runs) — see :func:`plan_from_env`
for the compact spec grammar.

Every trigger is recorded on ``plan.log`` so tests can assert not just
that the system survived, but that the fault actually fired.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time

#: Environment variable holding a compact fault spec (see plan_from_env).
FAULTS_ENV = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """Default exception a triggered rule raises."""


class FaultCrash(BaseException):
    """An *untrappable* injected crash (``BaseException``, like
    ``SystemExit``): sails through ``except Exception`` job isolation,
    killing the worker thread the way a real interpreter-level failure
    would.  The serve watchdog tests inject this to prove dead workers
    are detected and replaced."""


class FaultRule:
    """One trigger: which point, when, and what happens.

    ``raises`` may be an exception class or instance; ``sleep`` delays
    (before raising, if both are set); ``action`` is an arbitrary
    ``callable(ctx)`` escape hatch.
    """

    def __init__(self, point: str, *, raises=None, message: str | None = None,
                 probability: float = 1.0, times: int | None = None,
                 after: int = 0, when=None, sleep: float = 0.0,
                 action=None) -> None:
        if not (0.0 <= probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if raises is None and not sleep and action is None:
            raises = FaultError
        self.point = point
        self.raises = raises
        self.message = message
        self.probability = probability
        self.times = times
        self.after = after
        self.when = when
        self.sleep = sleep
        self.action = action
        #: Matching fault-point firings seen (triggered or not).
        self.hits = 0
        #: Times the rule actually triggered its action.
        self.triggered = 0

    def matches(self, point: str) -> bool:
        return point == self.point or fnmatch.fnmatchcase(point, self.point)

    def _exception(self, point: str) -> BaseException | None:
        if self.raises is None:
            return None
        if isinstance(self.raises, BaseException):
            return self.raises
        return self.raises(self.message
                           or f"injected fault at {point!r}")

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"FaultRule({self.point!r}, triggered={self.triggered}"
                f"/{self.hits} hits)")


class FaultPlan:
    """A seeded set of rules plus the trigger log.

    Thread-safe: eligibility bookkeeping (hit counts, probability draws)
    happens under one lock, so concurrent serve workers see a coherent
    ``times`` budget.
    """

    def __init__(self, rules, seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Trigger records: ``(point, rule_index, ctx)`` in firing order.
        self.log: list[tuple[str, int, dict]] = []

    def triggered(self, point: str | None = None) -> int:
        """Total triggers, optionally only for one point (glob)."""
        with self._lock:
            if point is None:
                return len(self.log)
            return sum(1 for p, _i, _c in self.log
                       if p == point or fnmatch.fnmatchcase(p, point))

    def fire(self, point: str, ctx: dict) -> None:
        """Evaluate every rule against one fault-point firing."""
        for index, rule in enumerate(self.rules):
            if not rule.matches(point):
                continue
            with self._lock:
                rule.hits += 1
                if rule.hits <= rule.after:
                    continue
                if rule.times is not None and rule.triggered >= rule.times:
                    continue
                if rule.when is not None and not rule.when(ctx):
                    continue
                if rule.probability < 1.0 and \
                        self._rng.random() >= rule.probability:
                    continue
                rule.triggered += 1
                self.log.append((point, index, dict(ctx)))
            # Actions run outside the lock: sleeps must not serialize
            # other points, and raises must not poison the plan.
            if rule.sleep:
                time.sleep(rule.sleep)
            if rule.action is not None:
                rule.action(ctx)
            exc = rule._exception(point)
            if exc is not None:
                raise exc

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def activate(self) -> "_ActivePlan":
        """Context manager arming this plan (restores the previous one
        on exit)."""
        return _ActivePlan(self)


class _ActivePlan:
    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._previous = activate(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        _set_active(self._previous)


#: The single armed plan; ``None`` keeps every fault point inert.
_ACTIVE: FaultPlan | None = None


def _set_active(plan: FaultPlan | None) -> None:
    global _ACTIVE
    _ACTIVE = plan


def activate(plan: FaultPlan) -> FaultPlan | None:
    """Arm ``plan`` globally; returns the previously armed plan."""
    previous = _ACTIVE
    _set_active(plan)
    return previous


def deactivate() -> None:
    """Disarm fault injection entirely."""
    _set_active(None)


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def fault_point(name: str, **ctx) -> None:
    """Declare a named fault point.  Disarmed this is one global load
    and a falsy check — cheap enough for per-payload store reads."""
    plan = _ACTIVE
    if plan is None:
        return
    plan.fire(name, ctx)


# ----------------------------------------------------------------------
# Environment arming
# ----------------------------------------------------------------------
#: Exception names resolvable from an env spec.
_ENV_EXCEPTIONS = {
    "FaultError": FaultError,
    "FaultCrash": FaultCrash,
    "OSError": OSError,
    "IOError": OSError,
    "MemoryError": MemoryError,
    "TimeoutError": TimeoutError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
}


def _env_exception(name: str):
    if name in _ENV_EXCEPTIONS:
        return _ENV_EXCEPTIONS[name]
    if name == "sqlite3.OperationalError":
        import sqlite3

        return sqlite3.OperationalError
    raise ValueError(
        f"unknown exception {name!r} in {FAULTS_ENV}; one of "
        f"{sorted(_ENV_EXCEPTIONS) + ['sqlite3.OperationalError']}")


def plan_from_env(spec: str) -> FaultPlan:
    """Parse a compact ``REPRO_FAULTS`` spec into a plan.

    Grammar (semicolon-separated rules, colon-separated options)::

        [seed=N;]point[:raise=ExcName][:p=0.05][:times=N][:after=N]
                      [:sleep=S]

    Example — 5 % locked-index faults plus one journal-write crash::

        REPRO_FAULTS="seed=7;store.index:raise=sqlite3.OperationalError:p=0.05;jobs.journal_write:times=1"
    """
    seed = 0
    rules = []
    parts = [p.strip() for p in spec.split(";") if p.strip()]
    for part in parts:
        if part.startswith("seed="):
            seed = int(part[5:])
            continue
        fields = part.split(":")
        kwargs: dict = {"point": fields[0]}
        for opt in fields[1:]:
            if opt.startswith("raise="):
                kwargs["raises"] = _env_exception(opt[6:])
            elif opt.startswith("p="):
                kwargs["probability"] = float(opt[2:])
            elif opt.startswith("times="):
                kwargs["times"] = int(opt[6:])
            elif opt.startswith("after="):
                kwargs["after"] = int(opt[6:])
            elif opt.startswith("sleep="):
                kwargs["sleep"] = float(opt[6:])
            else:
                raise ValueError(
                    f"unknown option {opt!r} in {FAULTS_ENV} rule {part!r}")
        rules.append(FaultRule(**kwargs))
    return FaultPlan(rules, seed=seed)


def arm_from_env(environ=None) -> FaultPlan | None:
    """Arm from ``$REPRO_FAULTS`` if set; returns the armed plan."""
    spec = (os.environ if environ is None else environ).get(FAULTS_ENV)
    if not spec:
        return None
    plan = plan_from_env(spec)
    activate(plan)
    return plan


# Subprocess / CLI chaos runs arm from the environment the moment any
# instrumented module imports this one; with REPRO_FAULTS unset this is
# a no-op and every fault point stays inert.
arm_from_env()
