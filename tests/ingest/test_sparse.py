"""Sparse solve path: CSC assembly + SuperLU vs the dense reference.

The sparse path is auto-selected above ``MnaSystem.sparse_threshold``
nodes and guarded by the scaled-residual acceptance check; below the
threshold nothing changes (the dense path stays byte-identical, which
the oracle-equivalence suite already pins).  Here the threshold is
forced down so a modest ladder exercises the sparse code, and the
answers are compared against dense on the same circuit.
"""

import time

import numpy as np
import pytest

from repro.ingest import compile_deck
from repro.spice.dc import dc_operating_point
from repro.spice.mna import MnaSystem

N_NODES = 120


def ladder_text(n=N_NODES, diode_every=25):
    lines = [".model dcore d (is=1e-14 n=1.5)",
             "vin n0 0 dc 1.0 ac 1.0"]
    for i in range(n):
        lines.append(f"r{i} n{i} n{i + 1} 1k")
        lines.append(f"c{i} n{i + 1} 0 1p")
        if i % diode_every == 0:
            lines.append(f"d{i} n{i + 1} 0 dcore")
    return "\n".join(lines) + "\n.end\n"


@pytest.fixture()
def ladder():
    return compile_deck(ladder_text(), name="ladder").circuit


def solve(circuit, freqs, n=N_NODES):
    op = dc_operating_point(circuit)
    tf = op.small_signal().transfer(freqs, f"n{n}")
    x = np.array([op.v(f"n{k}") for k in range(n + 1)])
    return x, tf


def assert_same_answers(x_dense, tf_dense, x_sparse, tf_sparse):
    assert float(np.max(np.abs(x_dense - x_sparse))) < 1e-9
    # Stimulus-referred: past the ladder's deep attenuation the dense
    # answer is its own roundoff noise, so pointwise relative error
    # is meaningless there.
    scale = float(np.max(np.abs(tf_dense)))
    assert float(np.max(np.abs(tf_dense - tf_sparse))) / scale < 1e-9


class TestSelection:
    def test_threshold_gates_preference(self, ladder, monkeypatch):
        system = MnaSystem(ladder)
        assert not system.prefer_sparse      # 121 nodes < default 500
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 10)
        assert MnaSystem(ladder).prefer_sparse

    def test_assemble_csc_matches_dense(self, ladder):
        system = MnaSystem(ladder)
        n = system.size
        x = np.linspace(0.0, 1.0, n + 1)
        rhs = system.rhs_dc()
        jac, resid_d, _ = system.assemble(x, rhs, gmin=1e-9)
        a, resid_s, _ = system.assemble_csc(x, rhs, gmin=1e-9)
        # COO duplicate summation may reorder float adds vs the dense
        # np.add.at path, so the comparison is allclose at ~1 ulp scale.
        np.testing.assert_allclose(a.toarray(), jac[:n, :n],
                                   rtol=1e-13, atol=1e-30)
        np.testing.assert_allclose(resid_s, resid_d, rtol=1e-13, atol=1e-30)


class TestEquivalence:
    def test_sparse_matches_dense_dc_and_ac(self, ladder, monkeypatch):
        freqs = np.logspace(1, 7, 20)
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 10 ** 9)
        x_dense, tf_dense = solve(ladder, freqs)
        ladder_s = compile_deck(ladder_text(), name="ladder").circuit
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 10)
        x_sparse, tf_sparse = solve(ladder_s, freqs)
        assert_same_answers(x_dense, tf_dense, x_sparse, tf_sparse)

    def test_sparse_newton_converges_like_dense(self, ladder, monkeypatch):
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 10)
        op = dc_operating_point(ladder)
        assert op.strategy == "newton"
        assert np.isfinite(op.v(f"n{N_NODES}"))


class TestSpeedFloor:
    def test_sparse_is_3x_dense_at_1000_nodes(self, monkeypatch):
        """The sparse path exists to be faster on large decks: on a
        1000-node ladder (a diode every 50 rungs), DC plus a 40-point AC
        sweep at the default threshold must take at most a third of the
        process CPU of the dense LAPACK path, with the same answers."""
        n = 1000
        text = ladder_text(n, diode_every=50)
        freqs = np.logspace(1, 7, 40)

        def timed():
            circuit = compile_deck(text, name="ladder").circuit
            c0 = time.process_time()
            answers = solve(circuit, freqs, n)
            return time.process_time() - c0, answers

        assert MnaSystem(compile_deck(text, name="ladder").circuit) \
            .prefer_sparse
        t_sparse, (x_sparse, tf_sparse) = timed()
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 10 ** 9)
        t_dense, (x_dense, tf_dense) = timed()

        assert_same_answers(x_dense, tf_dense, x_sparse, tf_sparse)
        assert t_dense / t_sparse >= 3.0, \
            f"sparse only {t_dense / t_sparse:.1f}x dense " \
            f"({t_sparse:.3f}s vs {t_dense:.3f}s)"
