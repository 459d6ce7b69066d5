"""The noise source pack reuses the device evaluations of the
linearisation at the same operating point.

``StampedSystem.linearize`` keeps the device evaluations it assembled
with; ``noise_sources`` at the same solution bytes takes them instead
of evaluating the MOS group again.  The bytes are pinned against the
frozen one-unit code in ``test_noise_units.py``; this file pins that
the evaluation is really skipped, and only where the solution matches.
"""

from __future__ import annotations

import pytest

from repro.spice.devices.mosfet import MosGroup
from repro.spice.dc import dc_operating_point


@pytest.fixture()
def counted(monkeypatch):
    calls = []
    real = MosGroup.evaluate

    def evaluate(self, volts):
        calls.append(volts.shape)
        return real(self, volts)

    monkeypatch.setattr(MosGroup, "evaluate", evaluate)
    return calls


def _packs_equal(a, b) -> bool:
    return all(getattr(pa, f).tobytes() == getattr(pb, f).tobytes()
               for pa, pb in zip(a, b)
               for f in ("psd_flat", "psd_flicker", "af", "node_a", "node_b"))


def test_pack_after_linearize_evaluates_no_device(mic_amp_40db, counted):
    op = dc_operating_point(mic_amp_40db.circuit)
    op.system.linearize(op.x)
    counted.clear()
    reused = op.system.noise_sources(op.x)
    assert counted == []
    op.system._linear_point = None
    fresh = op.system.noise_sources(op.x)
    assert len(counted) == 1
    assert _packs_equal(reused, fresh)


def test_other_solution_evaluates_again(mic_amp_40db, counted):
    op = dc_operating_point(mic_amp_40db.circuit)
    op.system.linearize(op.x)
    counted.clear()
    moved = op.x.copy()
    moved[0] += 1e-3
    op.system.noise_sources(moved)
    assert len(counted) == 1
