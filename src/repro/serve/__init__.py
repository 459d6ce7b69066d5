"""Characterization-as-a-service: the layer that turns batches into a system.

PRs 1–4 built four batch layers — a batched small-signal engine, a
campaign engine, a sizing optimizer and a persistent result store —
each consumed by a one-shot process.  This package puts a long-lived
service in front of all of them, the way bench measurements are
actually consumed: many clients, repeated requests, one shared cache.

* :mod:`repro.serve.validate` — one request schema for the HTTP API and
  the CLI ``--spec`` front doors; every violation is a one-line
  :class:`~repro.serve.validate.SpecValidationError`.
* :mod:`repro.serve.jobs` — :class:`~repro.serve.jobs.Job` /
  :class:`~repro.serve.jobs.JobQueue`: a coalescing, journal-capable
  queue in which identical in-flight requests attach to one execution.
* :mod:`repro.serve.service` —
  :class:`~repro.serve.service.CharacterizationService`: worker threads
  over ``run_campaign`` / ``optimize_mic_amp``, store-backed **warm
  hits** (a fully-cached campaign never touches the engine) and
  exactly-once unit execution across any interleaving of duplicates.
* :mod:`repro.serve.api` — the stdlib ``ThreadingHTTPServer`` JSON API
  over persistent HTTP/1.1 connections (``POST /v1/campaigns``,
  ``POST /v1/optimize``, ``GET /v1/jobs/<id>`` [+ ``?wait=S`` long poll,
  + ``/result`` with pagination], ``GET /v1/metrics``, ``/healthz``).
* :mod:`repro.serve.client` — an ``http.client`` client driving the
  lifecycle over one kept-alive connection per thread (``repro client``,
  ``perfbench/``'s ``serve_mixed`` workload).

Quickstart::

    repro serve --port 8765 --store results/store      # terminal 1

    curl -s http://127.0.0.1:8765/v1/campaigns \\
         -d '{"builder": "micamp", "corners": ["tt", "ss"],
              "temps_c": [25.0], "seeds": [0, 1],
              "measurements": ["offset_v", "iq_ma"]}'   # terminal 2
    curl -s http://127.0.0.1:8765/v1/jobs/<id>/result

Served campaign results are byte-identical to a direct
``repro campaign --json`` of the same spec; a warm request (every unit
cached) is answered from the store without touching the engine.
"""

from repro.serve.api import ServeServer, make_server, serve_background
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobQueue
from repro.serve.service import (
    CharacterizationService,
    JobTimeout,
    ServiceMetrics,
)
from repro.serve.validate import (
    SpecValidationError,
    campaign_spec_from_dict,
    load_request_file,
    optimize_request_from_dict,
    parse_request,
)

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "CharacterizationService",
    "Job",
    "JobQueue",
    "JobTimeout",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServiceMetrics",
    "SpecValidationError",
    "campaign_spec_from_dict",
    "load_request_file",
    "make_server",
    "optimize_request_from_dict",
    "parse_request",
    "serve_background",
]
