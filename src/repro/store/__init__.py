"""Persistent content-addressed result store (the fourth layer).

Every other cache in the repo dies with its process; this package makes
simulation results survive it.  Records are addressed by deterministic
content hashes of everything they depend on (:mod:`repro.store.keys`)
and kept in one sqlite database, payloads inline in their rows
(:mod:`repro.store.backend`), that any number of processes can share.

Two workloads ride on it:

* **incremental campaigns** — ``run_campaign(spec, store=store)``
  partitions the expanded units into cached-vs-missing, executes only
  the missing ones and merges a byte-identical
  :class:`~repro.campaign.result.CampaignResult`; a warm rerun executes
  zero units;
* **resumable optimizer runs** — ``CandidateEvaluator(store=store)``
  consults the store beneath its in-memory memo, so a repeated or
  extended sizing search pays a JSON read, not a Newton solve, for
  every design it has ever measured (in any process).

Quickstart::

    from repro.campaign import CampaignSpec, run_campaign
    from repro.store import ResultStore

    store = ResultStore("results/store")
    spec = CampaignSpec(builder="micamp", seeds=tuple(range(20)),
                        measurements=("offset_v", "psrr_1khz_db"))
    run_campaign(spec, store=store)    # cold: executes 300 units
    run_campaign(spec, store=store)    # warm: executes 0, same bytes

``python -m repro store ls|stat|gc|export`` inspects and maintains a
store.
"""

from repro.store.backend import (
    STORE_ENV,
    ResultStore,
    default_store_root,
    open_store,
)
from repro.store.keys import (
    SCHEMA_VERSION,
    UnitKeyer,
    campaign_key,
    canonical_hash,
    canonical_json,
    canonical_payload,
    design_key,
    evaluator_fingerprint,
    spec_fingerprint,
    tech_fingerprint,
    unit_key,
)

__all__ = [
    "SCHEMA_VERSION",
    "STORE_ENV",
    "ResultStore",
    "UnitKeyer",
    "campaign_key",
    "canonical_hash",
    "canonical_json",
    "canonical_payload",
    "default_store_root",
    "design_key",
    "evaluator_fingerprint",
    "open_store",
    "spec_fingerprint",
    "tech_fingerprint",
    "unit_key",
]
