"""End-to-end integration: the paper's system-level claims.

Does the reproduction meet the Eq. 2 system budget, all the way from
transistor models to the sigma-delta output?  The Table 1/2 verdicts,
quick and full mode, live in ``tests/paper/``.
"""

import pytest


class TestSystemBudget:
    def test_full_chain_meets_14_bit_budget(self, tech, mic_amp_noise):
        """Fig. 1 + Eq. 2: microphone amp (measured noise) + sigma-delta
        modulator deliver the psophometric S/N the CODEC needs."""
        from repro.frontend.voice_chain import VoiceChain

        chain = VoiceChain()
        res = chain.run(5, 5.0e-3, mic_amp_noise.freqs, mic_amp_noise.input_psd)
        assert res.snr_psophometric_db > 80.0
        assert not res.clipped

    def test_bias_and_bandgap_feed_consistent_levels(self, tech):
        """The references the front-end distributes: +/-0.6 V and ~20 uA."""
        from repro.circuits.bandgap import build_bandgap
        from repro.circuits.bias import build_bias_circuit
        from repro.spice import dc_operating_point

        bias = build_bias_circuit(tech)
        op_bias = dc_operating_point(bias.circuit)
        assert op_bias.v("iout") / 10e3 == pytest.approx(20e-6, rel=0.15)

        bg = build_bandgap(tech, r2_trim=1.2)
        op_bg = dc_operating_point(bg.circuit)
        assert op_bg.v("vrefp") == pytest.approx(0.6, abs=0.06)
        assert op_bg.v("vrefn") == pytest.approx(-0.6, abs=0.06)

    def test_whole_front_end_within_current_budget(self, table1, table2):
        """Mic amp + buffer together: the battery-life constraint."""
        assert table1["iq_ma"] + table2["iq_ma"] < 7.0
