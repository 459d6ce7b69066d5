"""``REPRO_OBS`` arming: one env var turns the observability layer on.

The grammar mirrors ``REPRO_FAULTS`` (semicolon-separated components,
colon-separated options)::

    REPRO_OBS="1"                               # everything on
    REPRO_OBS="trace"                           # tracing only
    REPRO_OBS="trace:export=/tmp/spans.jsonl"   # + JSONL append per span
    REPRO_OBS="trace:buffer=100000;profile"     # tracing + profiling
    REPRO_OBS="profile"                         # profiling accumulators
    REPRO_OBS="events"                          # structured event log
    REPRO_OBS="events:export=/tmp/events.jsonl" # + JSONL append per event

Components: ``trace`` (span collection — see :mod:`repro.obs.trace`),
``profile`` (engine accumulators — :mod:`repro.obs.profile`),
``events`` (degradation-path event log — :mod:`repro.obs.events`), and
``metrics`` (accepted for symmetry; service histograms/gauges are
always on, they live on ``ServiceMetrics`` and cost one lock + bisect
per observation).  ``1`` / ``all`` / ``on`` arm every component.

Like the fault harness, arming happens at import time so subprocesses
(CLI runs, CI smoke jobs) inherit the armed state
from their environment with no code changes.  With ``REPRO_OBS`` unset
this module is inert and every hook stays a single ``None`` check.
"""

from __future__ import annotations

import os

from repro.obs import events as _events
from repro.obs import profile as _profile
from repro.obs import trace as _trace

#: Environment variable holding the compact obs spec.
OBS_ENV = "REPRO_OBS"


class ObsConfig:
    """Parsed arming request: which components, with which options."""

    def __init__(self, trace: bool = False, profile: bool = False,
                 metrics: bool = False, events: bool = False,
                 trace_export=None, trace_buffer: int = 65536,
                 events_export=None, events_buffer: int = 65536) -> None:
        self.trace = trace
        self.profile = profile
        self.metrics = metrics
        self.events = events
        self.trace_export = trace_export
        self.trace_buffer = trace_buffer
        self.events_export = events_export
        self.events_buffer = events_buffer

    @property
    def any(self) -> bool:
        return self.trace or self.profile or self.metrics or self.events

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"ObsConfig(trace={self.trace}, profile={self.profile}, "
                f"metrics={self.metrics}, events={self.events}, "
                f"export={self.trace_export!r})")


def config_from_env(spec: str) -> ObsConfig:
    """Parse a compact ``REPRO_OBS`` spec (see module docstring)."""
    config = ObsConfig()
    parts = [p.strip() for p in spec.replace(",", ";").split(";")
             if p.strip()]
    for part in parts:
        fields = part.split(":")
        component = fields[0].lower()
        if component in ("1", "all", "on", "true"):
            config.trace = config.profile = config.metrics = True
            config.events = True
        elif component == "trace":
            config.trace = True
        elif component == "profile":
            config.profile = True
        elif component == "metrics":
            config.metrics = True
        elif component == "events":
            config.events = True
        else:
            raise ValueError(
                f"unknown component {component!r} in {OBS_ENV}; one of "
                "['1', 'all', 'trace', 'profile', 'metrics', 'events']")
        for opt in fields[1:]:
            if opt.startswith("export="):
                if component == "events":
                    config.events_export = opt[7:]
                elif component in ("trace", "1", "all", "on", "true"):
                    config.trace_export = opt[7:]
                else:
                    raise ValueError(
                        f"export= applies to trace/events, not "
                        f"{component!r}")
            elif opt.startswith("buffer="):
                if component == "events":
                    config.events_buffer = int(opt[7:])
                else:
                    config.trace_buffer = int(opt[7:])
            else:
                raise ValueError(
                    f"unknown option {opt!r} in {OBS_ENV} part {part!r}")
    return config


def arm(config: ObsConfig) -> dict:
    """Arm the requested components globally; returns the armed objects
    (``{"tracer": ..., "profiler": ...}``, absent keys disarmed)."""
    armed: dict = {}
    if config.trace:
        tracer = _trace.Tracer(buffer=config.trace_buffer,
                               export_path=config.trace_export)
        _trace.activate(tracer)
        armed["tracer"] = tracer
    if config.profile:
        profiler = _profile.Profiler()
        _profile.activate(profiler)
        armed["profiler"] = profiler
    if config.events:
        log = _events.EventLog(buffer=config.events_buffer,
                               export_path=config.events_export)
        _events.activate(log)
        armed["events"] = log
    return armed


def arm_from_env(environ=None) -> dict | None:
    """Arm from ``$REPRO_OBS`` if set; returns the armed objects."""
    spec = (os.environ if environ is None else environ).get(OBS_ENV)
    if not spec:
        return None
    return arm(config_from_env(spec))


def trace_enabled() -> bool:
    """Is a tracer armed right now (any scope)?"""
    return _trace.active_tracer() is not None


def profile_enabled() -> bool:
    """Is a profiler armed right now (any scope)?"""
    return _profile.active_profiler() is not None


def events_enabled() -> bool:
    """Is an event log armed right now (any scope)?"""
    return _events.active_event_log() is not None


# CLI / subprocess / CI runs arm the moment any instrumented module
# imports repro.obs; with REPRO_OBS unset this is a no-op and every
# span/profile hook stays inert.
arm_from_env()
