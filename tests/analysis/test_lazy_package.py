"""``repro.analysis`` loads each measurement module on first use."""

import subprocess
import sys

import pytest

import repro.analysis


def test_campaign_import_leaves_the_heavy_analysis_modules_unloaded():
    code = ("import sys, repro.campaign; print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert "repro.analysis.gain" not in out
    assert "repro.analysis.distortion" not in out
    assert "repro.analysis.psrr" in out


@pytest.mark.parametrize("name", repro.analysis.__all__)
def test_every_exported_name_resolves(name):
    namespace: dict = {}
    exec(f"from repro.analysis import {name}", namespace)
    value = namespace[name]
    assert value is getattr(repro.analysis, name)
    assert value.__module__.startswith("repro.analysis.")
    assert name in dir(repro.analysis)


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from repro.analysis import *", namespace)
    assert set(repro.analysis.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.analysis.no_such_name  # noqa: B018
