"""Closed-form noise budget: the paper's Eqs. 3, 4 and 5.

This module is the *analytic* model the authors used on paper; the
simulator's adjoint noise analysis is the *measured* counterpart.  Tests
check the two agree within the approximations (tail/CMFB rejection,
second-stage suppression), which is precisely the Sec. 3.1/3.2 argument
chain:

* each input device adds ``8kT/(3 gm)`` thermal and ``KF/(Cox W L f)``
  flicker, and there are four of them (two pairs, +3 dB);
* common loads add the same expressions scaled by ``(gm_load/gm_in)^2``;
* the gain network adds 4kT(R_a || R_f) per side — the gain-dependent
  term of Eq. 4;
* each of the two simultaneously-on switches adds 4kT*Ron (Eq. 5) with
  ``Ron = 1/(W/L * muCox * V_eff)``.

Transcription note: the OCR'd Eq. 4 prints a ``2kT[...]`` prefactor and a
``2*sqrt(2)*Ron`` switch term; dimensional consistency requires the 4kT
thermal forms used here (see DESIGN.md).  The *structure* — A_cl-scaled
network noise, noise-gain-scaled amplifier noise, Ron-proportional switch
noise — is preserved, which is what the paper uses the equation for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN, kelvin
from repro.pga.gain_control import GainControl
from repro.process.technology import Technology


def mos_thermal_svg(gm: float, temp_c: float = 25.0) -> float:
    """Gate-referred thermal noise voltage PSD of a saturated MOSFET
    [V^2/Hz]: 4kT * (2/3) / gm (Eq. 3's device term)."""
    if gm <= 0.0:
        raise ValueError("gm must be positive")
    return 4.0 * BOLTZMANN * kelvin(temp_c) * (2.0 / 3.0) / gm


def mos_flicker_svg(kf: float, cox: float, w: float, l: float, freq: float,
                    af: float = 1.0) -> float:
    """Gate-referred flicker noise PSD [V^2/Hz]: KF/(Cox W L f^AF)."""
    return kf / (cox * w * l * freq**af)


def resistor_psd(resistance: float, temp_c: float = 25.0) -> float:
    """Thermal noise voltage PSD of a resistor [V^2/Hz]: 4kTR."""
    return 4.0 * BOLTZMANN * kelvin(temp_c) * resistance


def eq5_switch_ron(tech: Technology, w_over_l: float, veff: float) -> float:
    """On-resistance of a MOS tap switch [ohm] (the paper's Eq. 5 body).

    Eq. 5:  e_sw^2 = 4kT*Ron with Ron = 1/((W/L) * muCox * V_eff).
    """
    if veff <= 0.0:
        raise ValueError("switch V_eff must be positive (switch is off)")
    return 1.0 / (w_over_l * tech.nmos.kp * veff)


def eq5_switch_noise(tech: Technology, w_over_l: float, veff: float,
                     temp_c: float = 25.0) -> float:
    """Eq. 5: squared RMS noise voltage of one on-switch [V^2/Hz]."""
    return resistor_psd(eq5_switch_ron(tech, w_over_l, veff), temp_c)


@dataclass
class MicAmpNoiseBudget:
    """Analytic input-referred noise of the Fig. 4 amplifier.

    Parameters are operating-point quantities (gm of one input device,
    gm of one load device) plus geometry; :meth:`from_design` pulls them
    from a solved instance so the budget tracks the actual bias.
    """

    tech: Technology
    gain: GainControl
    gm_input: float
    gm_load: float
    w_input: float
    l_input: float
    w_load: float
    l_load: float
    r_switch_on: float
    temp_c: float = 25.0
    n_input_devices: int = 4
    n_load_devices: int = 2

    @classmethod
    def from_design(cls, design, op) -> "MicAmpNoiseBudget":
        """Build the budget from a MicAmpDesign and its operating point."""
        t1 = op.mos_op("t1")
        tl = op.mos_op("tl_a")
        sw_name = None
        states = design.gain.switch_states(design.gain_code)
        for k, closed in enumerate(states):
            if closed:
                sw_name = f"swa_{k}"
        if design.switch_type == "mos" and sw_name is not None:
            sw = op.mos_op(sw_name)
            # triode on-resistance from the model's channel conductance
            ron = 1.0 / max(sw.gds, 1e-12)
        else:
            ron = design.sizes.r_switch_on
        return cls(
            tech=design.tech,
            gain=design.gain,
            gm_input=t1.gm,
            gm_load=tl.gm,
            w_input=design.sizes.w_input,
            l_input=design.sizes.l_input,
            w_load=design.sizes.w_load,
            l_load=design.sizes.l_load,
            r_switch_on=ron,
        )

    # ------------------------------------------------------------------
    # Component PSDs (input-referred, differential) [V^2/Hz]
    # ------------------------------------------------------------------
    def input_devices_thermal(self) -> float:
        """Eq. 3 applied to T1..T4: four devices' gate noise adds."""
        return self.n_input_devices * mos_thermal_svg(self.gm_input, self.temp_c)

    def load_devices_thermal(self) -> float:
        """Common loads, scaled by (gm_load/gm_input)^2."""
        per_load = 4.0 * BOLTZMANN * kelvin(self.temp_c) * (2.0 / 3.0) * self.gm_load
        return self.n_load_devices * per_load / self.gm_input**2

    def input_devices_flicker(self, freq: float) -> float:
        p = self.tech.pmos
        svg = mos_flicker_svg(p.kf, p.cox, self.w_input, self.l_input, freq, p.af)
        return self.n_input_devices * svg

    def load_devices_flicker(self, freq: float) -> float:
        n = self.tech.nmos
        svg = mos_flicker_svg(n.kf, n.cox, self.w_load, self.l_load, freq, n.af)
        return self.n_load_devices * svg * (self.gm_load / self.gm_input) ** 2

    def network_thermal(self, code: int) -> float:
        """Eq. 4's R_a || R_f term; two matched strings (one per side)."""
        r_par = self.gain.noise_source_resistance(code)
        return 2.0 * resistor_psd(r_par, self.temp_c)

    def switch_thermal(self) -> float:
        """Eq. 5: two switches simultaneously on (one per side)."""
        return 2.0 * resistor_psd(self.r_switch_on, self.temp_c)

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def input_psd(self, freq: float, code: int | None = None) -> float:
        """Total input-referred PSD at ``freq`` [V^2/Hz]."""
        c = self.gain.num_codes - 1 if code is None else code
        return (
            self.input_devices_thermal()
            + self.load_devices_thermal()
            + self.network_thermal(c)
            + self.switch_thermal()
            + self.input_devices_flicker(freq)
            + self.load_devices_flicker(freq)
        )

    def input_nv(self, freq: float, code: int | None = None) -> float:
        """Input-referred density [nV/sqrt(Hz)]."""
        return float(np.sqrt(self.input_psd(freq, code)) * 1e9)

    def flicker_corner_hz(self, code: int | None = None) -> float:
        """Frequency where flicker equals thermal (the Fig. 7 knee)."""
        thermal = (
            self.input_devices_thermal()
            + self.load_devices_thermal()
            + self.network_thermal(self.gain.num_codes - 1 if code is None else code)
            + self.switch_thermal()
        )
        flicker_1hz = self.input_devices_flicker(1.0) + self.load_devices_flicker(1.0)
        return float(flicker_1hz / thermal)

    def breakdown(self, freq: float, code: int | None = None) -> dict[str, float]:
        """Named component PSDs for reporting [V^2/Hz]."""
        c = self.gain.num_codes - 1 if code is None else code
        return {
            "input_thermal": self.input_devices_thermal(),
            "load_thermal": self.load_devices_thermal(),
            "network_thermal": self.network_thermal(c),
            "switch_thermal": self.switch_thermal(),
            "input_flicker": self.input_devices_flicker(freq),
            "load_flicker": self.load_devices_flicker(freq),
        }


def eq4_output_noise_psd(
    acl: float,
    ra: float,
    rf: float,
    req_amplifier: float,
    ron: float,
    temp_c: float = 25.0,
) -> float:
    """Output-referred Eq. 4 in its dimensionally consistent form
    [V^2/Hz]:

        e_out^2 = A_cl^2 * [ 2*4kT*(Ra||Rf) + 2*4kT*Ron + Req ]

    where Req is the amplifier's own input-referred PSD.  For the DDA
    both input pairs see the same gain, so every term carries A_cl^2
    (the classic single-ended non-inverting stage would split into
    A_cl^2 and (1+A_cl)^2 factors, which is how the paper prints it).
    The factors of two are the two matched strings and the two
    simultaneously-on switches of the fully differential network.
    """
    kt4 = 4.0 * BOLTZMANN * kelvin(temp_c)
    r_par = ra * rf / (ra + rf)
    return acl**2 * (2.0 * kt4 * r_par + 2.0 * kt4 * ron + req_amplifier)
