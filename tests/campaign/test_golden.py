"""Golden pin of the Table-1 qualification campaign's reduced results.

The 60-unit PVT x mismatch campaign (5 corners x 3 temperatures x 4
seeds at the 40 dB code) is the repo's reference workload — the bench
times it, the tensor path accelerates it, the README quotes it.
This file pins its *reductions* (sigma, worst-case, percentiles, yield)
to exact ``repr`` floats: any engine change that moves a bit anywhere in
build, solve or measure shows up here as a diff against a reviewable
JSON file, not as a silent drift.

The pin is recorded against one numerics fingerprint (numpy, scipy and
the BLAS build; see ``repro.numerics``) but holds at any host thread
count: ``import repro`` pins OpenBLAS to one thread, and threaded
OpenBLAS rounds the small-signal ``zgetrf`` differently — before the
pin this file failed on multi-core hosts by one ULP in
``sigma_gain_error_by_code``.  ``test_blas_threads.py`` checks the
campaign's full export at several thread settings.

Regenerate deliberately with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/campaign/test_golden.py

and audit the diff before committing it.
"""

import json
import os
import pathlib

import pytest

from repro.campaign import CampaignSpec, run_campaign

GOLDEN = pathlib.Path(__file__).parent / "golden" / "qualification_reduced.json"

SPEC = CampaignSpec(
    builder="micamp", corners=("tt", "ff", "ss", "fs", "sf"),
    temps_c=(-20.0, 25.0, 85.0), seeds=(0, 1, 2, 3), gain_codes=(5,),
    measurements=("offset_v", "iq_ma", "gain_1khz_db",
                  "psrr_1khz_db", "cmrr_1khz_db"),
)


def _reduced(result) -> dict:
    """Every reducer the result API offers, on spec-relevant metrics,
    with dict keys flattened to JSON-stable strings."""

    def flat(d: dict) -> dict:
        return {"|".join(str(k) for k in key): value
                for key, value in sorted(d.items(), key=lambda kv: str(kv[0]))}

    return {
        "n_units": len(result),
        "sigma_offset_by_corner": flat(result.sigma_by("offset_v", by=("corner",))),
        "sigma_gain_error_by_code": flat(result.sigma_by("gain_error_db")),
        "worst_psrr_by_corner": flat(result.worst_by("psrr_1khz_db",
                                                     by=("corner",), sense="min")),
        "worst_offset_by_temp": flat(result.worst_by("offset_v",
                                                     by=("temp_c",), sense="absmax")),
        "offset_percentiles": list(result.percentile("offset_v", (1.0, 50.0, 99.0))),
        "iq_p95_ma": float(result.percentile("iq_ma", 95.0)),
        "yield_psrr_ge_60db": result.yield_fraction("psrr_1khz_db", lo=60.0),
        "yield_offset_5mv": result.yield_fraction("offset_v", lo=-5e-3, hi=5e-3),
    }


@pytest.fixture(scope="module")
def reduced():
    return _reduced(run_campaign(SPEC))


def test_reduced_results_match_golden(reduced):
    payload = json.dumps(reduced, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(payload)
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.exists(), (
        f"golden file missing; regenerate with REPRO_REGEN_GOLDEN=1 ({GOLDEN})"
    )
    golden = json.loads(GOLDEN.read_text())
    current = json.loads(payload)
    assert current == golden, (
        "qualification campaign reductions drifted from the golden pin; "
        "if the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
        "and review the diff"
    )


def test_golden_covers_every_reducer(reduced):
    """The pin must keep exercising all four reducer families."""
    keys = set(reduced)
    assert any(k.startswith("sigma_") for k in keys)
    assert any(k.startswith("worst_") for k in keys)
    assert any("percentile" in k for k in keys)
    assert any(k.startswith("yield_") for k in keys)
