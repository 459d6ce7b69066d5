"""repro: reproduction of Pletersek/Strle/Trontelj (1995).

"Low supply voltage, low noise fully differential programmable gain
amplifiers" — the low-voltage analogue front-end for digital voice
terminals (2.6 V, 1.2 um CMOS), rebuilt as a Python library:

* :mod:`repro.spice`      — a from-scratch MNA circuit simulator
  (DC/AC/transient/adjoint-noise) standing in for the authors' SPICE
  decks and measurement bench;
* :mod:`repro.process`    — the reconstructed 1.2 um CMOS technology
  (corners, temperature, Pelgrom mismatch);
* :mod:`repro.circuits`   — the paper's circuits: bias (Fig. 2), fully
  differential bandgap (Fig. 3), DDA microphone amplifier with
  programmable gain (Figs. 4/5) and the class-AB differential power
  buffer (Figs. 8/9);
* :mod:`repro.analysis`   — noise budget (Eqs. 2-5), psophometric S/N,
  distortion, PSRR/CMRR, gain accuracy;
* :mod:`repro.pga`        — the public programmable-gain front-end API,
  sizing methodology and full characterisation (Tables 1 and 2);
* :mod:`repro.frontend`   — behavioural sigma-delta voice chain (Fig. 1);
* :mod:`repro.layout`     — area and matching models (Figs. 6/10).

Importing ``repro`` (or any submodule) pins the process's OpenBLAS to
one thread, so exported bytes do not depend on the BLAS thread count;
see :mod:`repro.numerics`.
"""

from repro.numerics import pin_blas
from repro.process.technology import CMOS12, Technology
from repro.pga.gain_control import GainControl
from repro.pga.specs import MIC_AMP_SPEC, POWER_BUFFER_SPEC

pin_blas()

__version__ = "1.0.0"

__all__ = [
    "CMOS12",
    "GainControl",
    "MIC_AMP_SPEC",
    "POWER_BUFFER_SPEC",
    "Technology",
    "__version__",
]
