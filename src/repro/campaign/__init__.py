"""Campaign engine: declarative PVT x mismatch x gain-code sweeps.

The paper's headline numbers are statistical, multi-scenario claims —
0.05 dB gain accuracy across codes, noise and PSRR guaranteed over five
process corners and -20..85 degC.  This package turns such studies from
hand-rolled loops into data:

* :class:`~repro.campaign.spec.CampaignSpec` declares the axes (corner,
  temperature, supply, mismatch seed, gain code), a registered circuit
  builder and a set of registered measurements;
* :func:`~repro.campaign.runner.run_campaign` expands the cross-product
  into work units and executes them in-process: structure-sharing
  groups through the tensor engine of :mod:`repro.campaign.batchrun`,
  everything else unit by unit, one shared operating-point
  factorization per unit;
* :class:`~repro.campaign.result.CampaignResult` collects the records
  columnar (structured NumPy arrays) with percentile/sigma/worst-case/
  yield reducers and CSV/JSON export.

Quickstart::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(builder="micamp", corners=("tt", "ff", "ss"),
                        temps_c=(-20.0, 25.0, 85.0), seeds=tuple(range(8)),
                        measurements=("offset_v", "psrr_1khz_db"))
    result = run_campaign(spec)
    print(result.summary())
    print(result.worst_by("psrr_1khz_db", by=("corner",), sense="min"))

``python -m repro campaign --help`` exposes the same engine on the
command line; ``perfbench/run.py --workload campaign_cli`` times it.
"""

from repro.campaign.batchrun import run_chunk_batched
from repro.campaign.builders import BUILDERS, BuiltUnit, register_builder
from repro.campaign.measurements import MEASUREMENTS, register_measurement
from repro.campaign.result import AXIS_COLUMNS, CampaignResult
from repro.campaign.runner import UnitRuntime, run_campaign, run_campaigns, run_chunk
from repro.campaign.spec import CampaignSpec, WorkUnit, mc_seeds

__all__ = [
    "AXIS_COLUMNS",
    "BUILDERS",
    "BuiltUnit",
    "CampaignResult",
    "CampaignSpec",
    "MEASUREMENTS",
    "UnitRuntime",
    "WorkUnit",
    "mc_seeds",
    "register_builder",
    "register_measurement",
    "run_campaign",
    "run_campaigns",
    "run_chunk",
    "run_chunk_batched",
]
