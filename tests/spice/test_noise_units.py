"""The unit-axis noise analysis against the frozen one-unit code, bit for bit.

:func:`repro.spice.noise.noise_analysis` (one operating point, ``N = 1``)
and :func:`repro.spice.noise.noise_units` (a tensor group's units in one
Schur pass on the batch's own ``G``/``C``) run one code over a leading
unit axis.  Both must reproduce :mod:`noise_reference` — the serial
analysis as it was before the unit axis — byte for byte: output PSD,
gain, input PSD and every (device, mechanism) contribution, on the mic
amp and the re-sized mic amp at three corners and three temperatures,
nominal and mismatched, in groups that mix gain codes.  A unit the
residual gate rejects goes back to the per-unit path, and the campaign
export does not move.
"""

from __future__ import annotations

import numpy as np
import pytest

import noise_reference
from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.measurements import noise_voice_freqs
from repro.campaign.result import CampaignResult
from repro.campaign.runner import ChunkCache
from repro.obs import Recorder
from repro.spice import linsolve
from repro.spice.batch import BatchedSystem, newton_batch
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis, noise_units

FREQS = noise_voice_freqs()
CORNERS = ("tt", "ss", "ff")
TEMPS = (-20.0, 25.0, 85.0)


def assert_same_bytes(result, ref) -> None:
    for field in ("output_psd", "gain", "input_psd"):
        assert getattr(result, field).tobytes() == getattr(ref, field).tobytes(), field
    assert list(result.contributions) == list(ref.contributions)
    for key, psd in ref.contributions.items():
        assert result.contributions[key].tobytes() == psd.tobytes(), key


def group(builder: str, seeds=(None, 3), gain_codes=(5,), corners=CORNERS,
          temps=TEMPS):
    """Every unit of a small spec as one tensor group, DC-solved in
    lockstep: ``(units, builts, system, x, converged)``."""
    spec = CampaignSpec(builder=builder, corners=corners, temps_c=temps,
                        seeds=seeds, gain_codes=gain_codes,
                        measurements=("noise_voice",))
    cache = ChunkCache(spec)
    units = spec.expand()
    builts = [cache.built(u) for u in units]
    temps_u = [u.temp_c for u in units]
    circuits = [b.circuit for b in builts]
    bs = BatchedSystem(circuits[0].compile(temp_c=temps_u[0]), circuits, temps_u)
    converged, x, _ = newton_batch(bs, bs.initial_guess(), bs.rhs_dc())
    return units, builts, bs, x, converged


def tensor_noise(bs, x, units, live, built):
    n = bs.size
    g = np.ascontiguousarray(bs.linearize(x)[:, :n, :n])
    c = np.ascontiguousarray(bs.c_t[:, :n, :n])
    return noise_units(bs, x, g, c, live, FREQS, built.out_p, built.out_n)


@pytest.fixture(scope="module", params=["micamp", "micamp_sized"])
def pvt_group(request):
    return group(request.param)


class TestOneUnit:
    """``N = 1``: the serial analysis is the frozen one."""

    def test_every_corner_temperature_and_seed(self, pvt_group):
        units, builts, _, _, _ = pvt_group
        for unit, built in zip(units, builts):
            op = dc_operating_point(built.circuit, temp_c=unit.temp_c)
            assert_same_bytes(
                noise_analysis(op, FREQS, built.out_p, built.out_n),
                noise_reference.noise_analysis(op, FREQS, built.out_p, built.out_n))

    def test_short_sweep_takes_the_lu_path(self, mic_amp_40db, mic_amp_op):
        freqs = np.logspace(2, 4, 5)
        assert_same_bytes(
            noise_analysis(mic_amp_op, freqs, mic_amp_40db.outp, mic_amp_40db.outn),
            noise_reference.noise_analysis(mic_amp_op, freqs, mic_amp_40db.outp,
                                           mic_amp_40db.outn))

    def test_contributions_are_computed_on_first_read(self, mic_amp_40db, mic_amp_op):
        nr = noise_analysis(mic_amp_op, FREQS, mic_amp_40db.outp, mic_amp_40db.outn)
        assert nr._contributions is None
        assert nr.contributions is nr.contributions


class TestUnitAxis:
    """A tensor group's units in one pass equal their serial analyses."""

    def test_pvt_and_mismatch_group(self, pvt_group):
        units, builts, bs, x, converged = pvt_group
        live = [u for u in range(len(units)) if converged[u]]
        assert len(live) == len(units)
        results = tensor_noise(bs, x, units, live, builts[0])
        for u in live:
            op = dc_operating_point(builts[u].circuit, temp_c=units[u].temp_c)
            assert op.x.tobytes() == x[u].tobytes()
            assert_same_bytes(results[u], noise_reference.noise_analysis(
                op, FREQS, builts[u].out_p, builts[u].out_n))

    def test_group_mixing_gain_codes(self):
        """Gain codes switch the network, so the units' source layouts
        differ; each layout reduces on its own."""
        units, builts, bs, x, converged = group(
            "micamp", seeds=(None, 1), gain_codes=(0, 2, 5), corners=("tt",),
            temps=(25.0,))
        layouts = bs.noise_sources(x)
        assert len(layouts) > 1
        live = list(range(len(units)))
        results = tensor_noise(bs, x, units, live, builts[0])
        for u in live:
            op = dc_operating_point(builts[u].circuit, temp_c=units[u].temp_c)
            assert_same_bytes(results[u], noise_reference.noise_analysis(
                op, FREQS, builts[u].out_p, builts[u].out_n))

    def test_sources_match_the_per_generator_records(self, pvt_group):
        units, builts, bs, x, _ = pvt_group
        for src in bs.noise_sources(x):
            for row, u in enumerate(src.units):
                system = builts[u].circuit.compile(temp_c=units[u].temp_c)
                ref = noise_reference.noise_sources(system, x[u])
                assert src.keys == [(s.device, s.mechanism) for s in ref]
                assert src.node_a.tolist() == [s.node_a for s in ref]
                assert src.node_b.tolist() == [s.node_b for s in ref]
                assert src.psd_flat[row].tolist() == [s.psd_flat for s in ref]
                assert src.psd_flicker[row].tolist() == [s.psd_flicker for s in ref]
                assert src.af[row].tolist() == [s.af for s in ref]

    def test_gate_values_are_the_serial_ones(self, pvt_group):
        units, builts, bs, x, _ = pvt_group
        n = bs.size
        g = np.ascontiguousarray(bs.linearize(x)[:, :n, :n])
        c = np.ascontiguousarray(bs.c_t[:, :n, :n])
        e = linsolve.output_selector(bs.pattern, builts[0].out_p, builts[0].out_n)
        _, _, resid = linsolve.SpectralSolver(g, c).solve_units(FREQS, adjoint_rhs=e)
        for u in range(len(units)):
            ref = noise_reference.SpectralSolver(g[u], c[u], 1e-10)
            assert ref.solve(FREQS, adjoint_rhs=e) is not None
            assert resid[u] == ref.residuals[-1]


NOISE_SPEC = CampaignSpec(
    builder="micamp", corners=("tt", "ss"), temps_c=(25.0, 85.0), seeds=(None, 2),
    gain_codes=(5,), measurements=("gain_1khz_db", "noise_voice"))


def export(spec: CampaignSpec):
    rec = Recorder()
    with rec.activate():
        text = run_campaign(spec).to_json()
    return text, rec


def oracle(spec: CampaignSpec) -> str:
    units = spec.expand()
    return CampaignResult.from_units(spec, units, run_chunk(spec, units)).to_json()


class TestGateRejection:
    """A unit whose unit-axis sweep the gate rejects is measured per
    unit: same bytes, one ``campaign.unit_fallback`` event each."""

    def test_tensor_group_measures_noise_in_one_pass(self):
        text, rec = export(NOISE_SPEC)
        assert text == oracle(NOISE_SPEC)
        counts = rec.profile()["counts"]
        assert counts["noise.batched_units"] == len(NOISE_SPEC.expand())
        assert not rec.events(name="campaign.unit_fallback")

    def test_one_rejected_unit_falls_back(self, monkeypatch):
        solve_units = linsolve.SpectralSolver.solve_units

        def reject_unit_1(self, *args, **kwargs):
            fwd, adj, resid = solve_units(self, *args, **kwargs)
            if self.n_units > 1:
                resid = resid.copy()
                resid[1] = np.nan
            return fwd, adj, resid

        monkeypatch.setattr(linsolve.SpectralSolver, "solve_units", reject_unit_1)
        text, rec = export(NOISE_SPEC)
        assert text == oracle(NOISE_SPEC)
        (fallback,) = rec.events(name="campaign.unit_fallback")
        assert fallback["fields"]["measurement"] == "noise_voice"
        assert fallback["fields"]["reason"] == "batched noise residual rejection"
        assert rec.profile()["counts"]["noise.batched_units"] == \
            len(NOISE_SPEC.expand()) - 1

    def test_closed_gate_sends_every_unit_to_the_lu_path(self, monkeypatch):
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        text, rec = export(NOISE_SPEC)
        assert text == oracle(NOISE_SPEC)
        noise = [e for e in rec.events(name="campaign.unit_fallback")
                 if e["fields"]["measurement"] == "noise_voice"]
        assert len(noise) == len(NOISE_SPEC.expand())
