"""Exported bytes do not depend on the BLAS thread count.

``import repro`` pins every loaded OpenBLAS to one thread
(:mod:`repro.numerics`).  Without the pin, the 60-unit qualification
campaign of ``test_golden.py`` exports different ``gain_1khz_db`` bits
at 1 and at 2 OpenBLAS threads on a multi-core host; with it, every
thread setting exports the 1-thread bytes.  These checks run in fresh
interpreters, since the thread count is fixed per process.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.serve.validate import campaign_spec_from_dict

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent.parent
SPEC_FILE = HERE / "golden" / "qualification_spec.json"


def _env(**overrides) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides)
    return env


def _python(code: str, **env) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=_env(**env), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spec_file_is_the_golden_spec():
    golden = importlib.util.spec_from_file_location("golden_pin",
                                                    HERE / "test_golden.py")
    module = importlib.util.module_from_spec(golden)
    golden.loader.exec_module(module)
    spec = campaign_spec_from_dict(json.loads(SPEC_FILE.read_text()))
    assert spec == module.SPEC
    assert len(spec.expand()) == 60


def test_export_is_identical_at_every_blas_thread_setting(tmp_path):
    exports = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        env = _env() if threads is None else _env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--spec",
             str(SPEC_FILE), "--json", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        exports[threads] = out.read_bytes()
    assert exports[None] == exports["1"] == exports["2"]


def test_import_pins_every_loaded_openblas():
    """Numpy comes first, as in a caller that imported it before us:
    the pin must still reach its already-initialised OpenBLAS."""
    out = _python(
        "import json, numpy, scipy.linalg\n"
        "import repro\n"
        "from repro.numerics import fingerprint\n"
        "print(json.dumps(fingerprint()))\n",
        OPENBLAS_NUM_THREADS="2")
    fp = json.loads(out)
    assert fp["pinned"] is True
    assert fp["blas"], "no OpenBLAS found in /proc/self/maps"
    assert [lib["threads"] for lib in fp["blas"]] == [1] * len(fp["blas"])
    assert fp["blas_threads"] == [1]


@pytest.mark.parametrize("sabotage", [
    # Every *_set_num_threads lookup fails.
    "_getattr = ctypes.CDLL.__getattr__\n"
    "def _no_setter(self, name):\n"
    "    if 'set_num_threads' in name:\n"
    "        raise AttributeError(name)\n"
    "    return _getattr(self, name)\n"
    "ctypes.CDLL.__getattr__ = _no_setter\n",
    # No library can be loaded.
    "def _no_load(*a, **k):\n"
    "    raise OSError('cannot load')\n"
    "ctypes.CDLL = _no_load\n",
], ids=["missing-symbol", "cdll-fails"])
def test_import_survives_a_failed_pin(sabotage):
    out = _python(
        "import ctypes, json, numpy, scipy.linalg\n"
        + sabotage
        + "import repro\n"
        "from repro.numerics import fingerprint\n"
        "print(json.dumps(fingerprint()['pinned']))\n")
    assert json.loads(out) is False
