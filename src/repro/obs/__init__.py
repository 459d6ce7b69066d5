"""repro.obs — tracing, metrics, and engine profiling for the stack.

Three dependency-free components with one cost contract — disarmed,
every hook is a single module-global ``None`` check (the
``fault_point`` discipline from :mod:`repro.faults`), so arming state
can never perturb a byte-identity or determinism gate:

* :mod:`repro.obs.trace` — spans with parent/child nesting, trace-ID
  propagation across threads, JSONL export,
  queryable per job via ``GET /v1/jobs/<id>/trace`` and ``repro trace``.
* :mod:`repro.obs.metrics` — fixed-bucket latency histograms, gauges,
  and the Prometheus text exposition behind ``GET /metrics``.
* :mod:`repro.obs.profile` — per-phase accumulators (Newton iterations,
  LU factor/solve, sparse-vs-dense decisions, store I/O, cache levels)
  surfaced through ``CampaignResult.stats`` and ``--profile``.
* :mod:`repro.obs.events` — structured degradation events (strategy
  escalations, fallback latches, quarantines, worker replacements) with
  severities, trace correlation, and ring-buffered retention; surfaced
  as ``events.*`` counters in ``/v1/metrics`` and triaged by
  ``repro doctor``.

Arming: ``REPRO_OBS=`` env grammar (parsed at import —
:mod:`repro.obs.harness`), or scoped ``Tracer.activate()`` /
``Profiler.activate()`` / ``EventLog.activate()`` context managers.
"""

from repro.obs.events import (
    SEVERITIES,
    EventLog,
    active_event_log,
    event,
    format_events,
)
from repro.obs.harness import (
    OBS_ENV,
    ObsConfig,
    arm,
    arm_from_env,
    config_from_env,
    events_enabled,
    profile_enabled,
    trace_enabled,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.profile import (
    Profiler,
    active_profiler,
    format_profile,
    prof_add,
    prof_count,
    timed,
)
from repro.obs.trace import (
    Tracer,
    active_tracer,
    current_context,
    format_tree,
    load_jsonl,
    slowest_spans,
    span,
    trace_point,
)

__all__ = [
    "OBS_ENV", "ObsConfig", "arm", "arm_from_env", "config_from_env",
    "trace_enabled", "profile_enabled", "events_enabled",
    "DEFAULT_BUCKETS", "Histogram", "parse_prometheus", "render_prometheus",
    "Profiler", "active_profiler", "format_profile", "prof_add",
    "prof_count", "timed",
    "Tracer", "active_tracer", "current_context", "format_tree",
    "load_jsonl", "slowest_spans", "span", "trace_point",
    "SEVERITIES", "EventLog", "active_event_log", "event", "format_events",
]
