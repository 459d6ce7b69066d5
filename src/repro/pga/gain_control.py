"""Digital gain programming (the paper's Fig. 5).

"The programmability is achieved by using two matched arrays of resistors
and switches that are controlled by digital signals.  The gain can be
varied from 10 dB to 40 dB in 6 dB steps."

The network is a tapped resistor string: the closed-loop gain of the
non-inverting DDA stage is ``A_cl = R_total / R_a(tap)`` with
``R_a + R_f = R_total`` fixed, so gain programming moves the tap without
changing the output load or the string's total noise resistance budget —
only the *split* between R_a and R_f changes, which is exactly the
gain-dependent noise mechanism of the paper's Eq. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import undb

#: The paper's gain settings: 10 dB to 40 dB in 6 dB steps.
GAIN_STEPS_DB: tuple[float, ...] = (10.0, 16.0, 22.0, 28.0, 34.0, 40.0)


@dataclass(frozen=True)
class GainControl:
    """Maps a digital gain word to resistor-string taps.

    ``r_total`` is the full string resistance (R_a + R_f); the default of
    25 kohm puts R_a at 250 ohm for the 40 dB setting.  Eq. 4 pulls R_a
    down ("a low value of R_a means a lower thermal noise contribution of
    the resistive network") while the string's loading of the output
    stage pulls it up (closed-loop gain accuracy needs loop gain) — the
    default sits where both Table 1 limits are met.
    """

    r_total: float = 25e3
    steps_db: tuple[float, ...] = GAIN_STEPS_DB

    def __post_init__(self) -> None:
        if self.r_total <= 0.0:
            raise ValueError("r_total must be positive")
        if len(self.steps_db) < 2:
            raise ValueError("need at least two gain settings")
        if any(b <= a for a, b in zip(self.steps_db, self.steps_db[1:])):
            raise ValueError("gain steps must be strictly increasing")

    @property
    def num_codes(self) -> int:
        return len(self.steps_db)

    def validate_code(self, code: int) -> int:
        if not 0 <= code < self.num_codes:
            raise ValueError(
                f"gain code {code} out of range 0..{self.num_codes - 1}"
            )
        return code

    def gain_db(self, code: int) -> float:
        """Nominal gain for a code [dB]."""
        return self.steps_db[self.validate_code(code)]

    def gain_linear(self, code: int) -> float:
        """Nominal closed-loop voltage gain (linear)."""
        return undb(self.gain_db(code))

    def r_bottom(self, code: int) -> float:
        """R_a for a code: the string below the selected tap [ohm]."""
        return self.r_total / self.gain_linear(code)

    def r_top(self, code: int) -> float:
        """R_f for a code: the string above the selected tap [ohm]."""
        return self.r_total - self.r_bottom(code)

    def tap_resistances(self) -> list[float]:
        """R_a of every code, highest gain last (smallest R_a)."""
        return [self.r_bottom(code) for code in range(self.num_codes)]

    def segment_resistances(self) -> list[float]:
        """The series string segments from ground tap to the output end.

        Segment 0 is the bottom piece (R_a of the highest-gain code);
        subsequent segments add up so that the tap below segment ``k``
        realises code ``num_codes - k``; the final segment reaches
        R_total.  All values are positive by construction.
        """
        taps = sorted(self.tap_resistances())  # ascending R_a = descending gain
        segments = [taps[0]]
        for lo, hi in zip(taps, taps[1:]):
            segments.append(hi - lo)
        segments.append(self.r_total - taps[-1])
        return segments

    def switch_states(self, code: int) -> list[bool]:
        """Which tap switch is closed for a code (one-hot, highest gain
        first, matching :meth:`segment_resistances` tap order)."""
        self.validate_code(code)
        # tap order in the string: ascending R_a == descending gain code
        order = list(range(self.num_codes - 1, -1, -1))
        return [c == code for c in order]

    def noise_source_resistance(self, code: int) -> float:
        """R_a || R_f seen by the feedback input at a code [ohm]."""
        ra = self.r_bottom(code)
        rf = self.r_top(code)
        return ra * rf / (ra + rf)

    def step_errors_db(self, measured_db: list[float]) -> list[float]:
        """Deviation of measured consecutive steps from the nominal steps."""
        if len(measured_db) != self.num_codes:
            raise ValueError(
                f"expected {self.num_codes} measurements, got {len(measured_db)}"
            )
        nominal = np.diff(self.steps_db)
        actual = np.diff(measured_db)
        return list(actual - nominal)
