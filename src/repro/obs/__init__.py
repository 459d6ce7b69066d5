"""repro.obs — one observability collector plus service metrics.

* :mod:`repro.obs.recorder` — the one :class:`Recorder`: spans with
  parent/child nesting and trace-ID propagation, structured degradation
  events with severities and trace correlation, and profiling counters,
  in one bounded ring with one JSONL export.  Disarmed, every hook
  (``span``, ``event``, ``prof_count``) is a single module-global
  ``None`` check (the ``fault_point`` discipline from
  :mod:`repro.faults`), so arming state can never perturb a
  byte-identity or determinism gate.  Armed by ``REPRO_OBS`` (parsed at
  import) or the scoped ``Recorder().activate()`` context manager;
  queried through ``GET /v1/jobs/<id>/trace``, ``GET /v1/events``,
  ``repro trace``, ``repro doctor`` and ``--profile``.
* :mod:`repro.obs.metrics` — fixed-bucket latency histograms, gauges,
  and the Prometheus text exposition behind ``GET /metrics``.
* :mod:`repro.obs.doctor` — stack triage behind ``repro doctor``.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.recorder import (
    OBS_ENV,
    SEVERITIES,
    Recorder,
    activate,
    active,
    arm_from_env,
    config_from_env,
    current_context,
    deactivate,
    event,
    format_events,
    format_profile,
    format_slowest,
    format_tree,
    load_jsonl,
    prof_count,
    slowest_spans,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS", "Histogram", "parse_prometheus", "render_prometheus",
    "OBS_ENV", "SEVERITIES", "Recorder", "activate", "active",
    "arm_from_env", "config_from_env", "current_context", "deactivate",
    "event", "format_events", "format_profile", "format_slowest",
    "format_tree", "load_jsonl", "prof_count", "slowest_spans", "span",
]
