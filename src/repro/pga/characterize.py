"""Full characterisation drivers: one call produces a Table 1/Table 2 row set.

These are the workhorses behind the ``benchmarks/bench_table*.py``
scripts and the rows mapped in ``docs/paper_mapping.md``: they run
every measurement the paper reports for each block and return plain
``{metric: value}`` dicts that the :mod:`repro.pga.specs` tables check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.distortion import (
    amplitude_at_thd,
    measure_static_transfer,
    static_thd,
)
from repro.analysis.dynamic_range import snr_from_spectrum
from repro.analysis.gain import measure_gain_codes
from repro.analysis.psophometric import psophometric_rms
from repro.analysis.slew import measure_slew_rate
from repro.campaign import CampaignSpec, mc_seeds, run_campaign
from repro.circuits.micamp import build_mic_amp
from repro.circuits.powerbuffer import build_power_buffer
from repro.faults import NUMERIC_FAILURES
from repro.layout.area import estimate_mic_amp_area_mm2
from repro.process.corners import CONSUMER_TEMPS_C
from repro.process.technology import Technology
from repro.spice.analysis import log_freqs
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis
from repro.spice.sweeps import binary_search_threshold


@dataclass
class CharacterizationOptions:
    """Effort knobs shared by the drivers."""

    quick: bool = False            # fewer MC trials / sweep points
    psrr_trials: int = 5
    noise_points_per_decade: int = 12
    seed: int = 2026


def gain_holds_at_supply(tech: Technology, total_supply: float,
                         nominal_gain_db: float,
                         tol_db: float = 0.5) -> bool:
    """One probe of the minimum-supply search: does the 1 kHz gain at
    ``total_supply`` hold within ``tol_db`` of nominal?

    Below some supply the circuit cannot even be built (switch overdrive
    collapses) or has no operating point: both count as "does not
    operate" — but only the *numeric* failure modes do
    (:data:`repro.faults.NUMERIC_FAILURES`).  Anything else — a
    ``MemoryError``, a broken pool, a typo-level ``TypeError`` — says
    nothing about the supply under test and propagates, so an
    infrastructure fault can never masquerade as a threshold.
    """
    try:
        d_sup = build_mic_amp(tech, gain_code=5,
                              vdd=total_supply / 2, vss=-total_supply / 2)
        op_s = dc_operating_point(d_sup.circuit)
        h = op_s.small_signal().transfer(np.array([1e3]), d_sup.outp, d_sup.outn)
        g_db = 20 * math.log10(abs(h[0]))
    except NUMERIC_FAILURES:
        return False
    return abs(g_db - nominal_gain_db) < tol_db


def characterize_mic_amp(
    tech: Technology,
    options: CharacterizationOptions | None = None,
) -> dict[str, float]:
    """Measure every Table 1 metric of the microphone amplifier."""
    opt = options or CharacterizationOptions()
    design = build_mic_amp(tech, gain_code=5)
    op = dc_operating_point(design.circuit)

    measured: dict[str, float] = {}
    measured["iq_ma"] = abs(op.i("vdd_src")) * 1e3

    # --- noise at 40 dB ---
    freqs = log_freqs(10.0, 100e3, opt.noise_points_per_decade)
    nr = noise_analysis(op, freqs, design.outp, design.outn)
    measured["vnin_300hz_nv"] = nr.input_nv_at(300.0)
    measured["vnin_1khz_nv"] = nr.input_nv_at(1e3)
    measured["vnin_avg_nv"] = nr.average_input_density(300.0, 3400.0) * 1e9

    # Table 1's "S/N (at 40 dB)" is the psophometrically weighted ratio
    # (the requirement derives from Eq. 2's 86.5 dB weighted budget);
    # the unweighted flat-band ratio is reported alongside.
    weighted_noise_out = psophometric_rms(freqs, nr.output_psd)
    measured["snr_40db_db"] = 20.0 * math.log10(0.6 / weighted_noise_out)
    measured["snr_unweighted_db"] = snr_from_spectrum(freqs, nr.input_psd)

    # --- gain accuracy across codes ---
    gm = measure_gain_codes(design)
    measured["gain_error_db"] = gm.worst_error_db
    measured["gain_step_error_db"] = gm.worst_step_error_db

    # --- distortion at 0.2 Vp input (lowest gain keeps output in range) ---
    design.set_gain_code(0)
    thd = static_thd(
        design.circuit, "vin_p", "vin_n", design.outp, design.outn,
        amplitude=0.2, points=25 if opt.quick else 41,
    )
    measured["hd_0v2_db"] = 20.0 * math.log10(max(thd, 1e-12))
    design.set_gain_code(5)

    # --- PSRR over mismatch (matching-limited; see analysis.psrr) ---
    # A one-axis campaign replaces the old hand-rolled rebuild loop;
    # mc_seeds reproduces the legacy derivation (master rng -> child
    # seeds), so the Monte-Carlo population is numerically unchanged.
    trials = 2 if opt.quick else opt.psrr_trials
    psrr_spec = CampaignSpec(
        builder="micamp", corners=("tt",), temps_c=(25.0,),
        seeds=mc_seeds(trials, opt.seed), gain_codes=(5,),
        measurements=("psrr_1khz_db",), tech=tech,
    )
    psrr_values = run_campaign(psrr_spec).metric("psrr_1khz_db")
    measured["psrr_1khz_db"] = float(min(psrr_values))
    measured["psrr_1khz_median_db"] = float(np.median(psrr_values))

    # --- minimum supply: gain must hold within 0.5 dB of nominal ---
    nominal_gain = gm.measured_db[-1]

    measured["supply_min_v"] = binary_search_threshold(
        lambda s: gain_holds_at_supply(tech, s, nominal_gain),
        1.8, 3.0, tol=0.05 if opt.quick else 0.02
    )

    # --- layout area model ---
    measured["area_mm2"] = estimate_mic_amp_area_mm2(design)
    return measured


def characterize_power_buffer(
    tech: Technology,
    options: CharacterizationOptions | None = None,
    supply_total: float = 2.6,
) -> dict[str, float]:
    """Measure every Table 2 metric of the class-AB driver."""
    opt = options or CharacterizationOptions()
    vdd, vss = supply_total / 2.0, -supply_total / 2.0

    design = build_power_buffer(tech, feedback="inverting", load="resistive",
                                vdd=vdd, vss=vss)
    op = dc_operating_point(design.circuit)
    measured: dict[str, float] = {}
    measured["iq_ma"] = abs(op.i("vdd_src")) * 1e3

    # --- static transfer for the V_omax(HD) rows (differential drive) ---
    transfer = measure_static_transfer(
        design.circuit, "vsrc_p", "vsrc_n", design.outp, design.outn,
        amplitude=1.25 * supply_total, points=31 if opt.quick else 61,
    )
    # differential amplitudes where THD crosses the Table 2 levels
    a06 = amplitude_at_thd(transfer, 0.006, supply_total * 0.1, supply_total * 1.2)
    a03 = amplitude_at_thd(transfer, 0.003, supply_total * 0.1, supply_total * 1.2)
    # per-side peak = A_diff/2; margin to the rail in mV
    measured["vomax_hd06_vpp_diff"] = 2.0 * a06
    measured["vomax_hd03_vpp_diff"] = 2.0 * a03
    measured["vomax_margin_hd06_mv"] = (vdd - a06 / 2.0) * 1e3
    measured["vomax_margin_hd03_mv"] = (vdd - a03 / 2.0) * 1e3

    # --- THD at the Fig. 11 operating point: 4 Vpp diff, 50 ohm, 3 V ---
    d3 = build_power_buffer(tech, feedback="inverting", load="resistive",
                            vdd=1.5, vss=-1.5)
    t3 = measure_static_transfer(
        d3.circuit, "vsrc_p", "vsrc_n", d3.outp, d3.outn,
        amplitude=2.2, points=31 if opt.quick else 61,
    )
    measured["hd_4vpp_50ohm_pct"] = t3.thd(2.0) * 100.0

    # --- input range: where the unity follower's incremental gain holds.
    # "Rail-to-rail input" means the input *stage* keeps working, so the
    # criterion is the local slope d(out)/d(in) staying above half its
    # mid-range value — tracking-error thresholds would instead measure
    # the loop gain, which legitimately sags in single-pair operation.
    d_unity = build_power_buffer(tech, feedback="unity", load="none",
                                 vdd=vdd, vss=vss)
    levels = np.linspace(vss, vdd, 16 if opt.quick else 27)
    from repro.spice.sweeps import source_value_sweep

    ops = source_value_sweep(d_unity.circuit, "vsrc_p", levels, anchor=0.0)
    outs = np.array([op_u.v(d_unity.outp) for op_u in ops])
    slope = np.gradient(outs, levels)
    mid = float(np.median(slope[np.abs(levels) < 0.3 * supply_total]))
    # 0.5x threshold: the single-pair handoff region droops but works
    alive = slope >= 0.5 * mid
    usable = levels[alive]
    if usable.size >= 2:
        measured["input_range_frac"] = (usable.max() - usable.min()) / supply_total
    else:
        measured["input_range_frac"] = 0.0

    # --- slew rate (Fig. 9 configuration, 1 V step) ---
    d_sr = build_power_buffer(tech, feedback="inverting", load="resistive",
                              vdd=vdd, vss=vss)
    sr = measure_slew_rate(
        d_sr.circuit, "vsrc_p", "vsrc_n", d_sr.outp, d_sr.outn,
        step=1.0, duration=20e-6, dt=25e-9,
    )
    measured["slew_v_per_us"] = sr.slew_v_per_s / 1e6

    # --- PSRR over mismatch (campaign-driven, same seeds as before) ---
    trials = 2 if opt.quick else opt.psrr_trials
    psrr_spec = CampaignSpec(
        builder="powerbuffer", corners=("tt",), temps_c=(25.0,),
        supplies=(supply_total,), seeds=mc_seeds(trials, opt.seed),
        measurements=("psrr_1khz_db",), tech=tech,
    )
    psrr_values = run_campaign(psrr_spec).metric("psrr_1khz_db")
    measured["psrr_1khz_db"] = float(min(psrr_values))
    return measured


def iq_spread_over_conditions(
    tech: Technology,
    supplies: tuple[float, ...] = (2.8, 3.0, 4.0, 5.0),
    temps: tuple[float, ...] = CONSUMER_TEMPS_C,
    corners: tuple[str, ...] = ("tt", "ff", "ss"),
) -> dict[str, float]:
    """The paper's quiescent-current claim: "total supply current
    variations with temperature, process and supply ... is 15 % over a
    wide supply voltage range (2.8 V to 5 V)".  Returns min/max/nominal
    IQ of the buffer over the cross-product.

    This is the poster-child campaign: three declarative axes, one
    metric.  The engine walks the same corner -> supply -> temperature
    nesting the old triple loop used (one built circuit per
    corner/supply, one cold DC solve per temperature), so the values —
    and their order — are unchanged.
    """
    spec = CampaignSpec(
        builder="powerbuffer", corners=tuple(corners), temps_c=tuple(temps),
        supplies=tuple(supplies), measurements=("iq_ma",), tech=tech,
    )
    values = run_campaign(spec).metric("iq_ma")
    return {
        "iq_min_ma": float(min(values)),
        "iq_max_ma": float(max(values)),
        "iq_nominal_ma": float(np.median(values)),
        "spread_frac": float((max(values) - min(values)) / (2.0 * np.median(values))),
    }
