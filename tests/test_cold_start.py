"""SciPy, numpy.ma and numpy.polynomial stay off the import path.

Only a Cholesky solve loads SciPy, and SciPy brings in numpy.ma and
numpy.polynomial; no command off the Cholesky route loads either of them.

Each check runs in a fresh interpreter, since this test process has SciPy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracheat

SRC = Path(fracheat.__file__).resolve().parents[1]

# stage name -> CLI arguments, run in this order in one interpreter; SciPy,
# once loaded, stays loaded, so the Cholesky run comes last
_STAGES = (
    ("forward_modal", ["forward", "--N", "16", "--M", "16", "--solver", "modal"]),
    ("noise_modal", ["noise", "--N", "16", "--M", "16", "--solver", "modal"]),
    ("inverse_cg", ["inverse", "--N", "16", "--M", "10", "--solver", "cg"]),
    ("oracle_check", ["oracle-check", "--N", "16"]),
    ("inverse_cholesky", ["inverse", "--N", "16", "--M", "10", "--solver", "cholesky"]),
)

_SCRIPT = """
import json, sys

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

def record(**extra):
    return dict(extra, scipy=modules("scipy"), ma=modules("numpy.ma"),
                polynomial=modules("numpy.polynomial"))

import fracheat
seen = {"import": record()}
from fracheat.cli import main
for name, argv in json.loads(sys.argv[1]):
    seen[name] = record(code=main(argv + ["--out", sys.argv[2] + "/" + name]))
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold_start")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_STAGES), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(loaded):
    assert loaded["import"]["scipy"] == []


@pytest.mark.parametrize("stage", ["forward_modal", "noise_modal", "inverse_cg", "oracle_check"])
def test_commands_off_the_cholesky_route_load_no_scipy(loaded, stage):
    assert loaded[stage]["code"] == 0
    assert loaded[stage]["scipy"] == []


_OFF_CHOLESKY = ["import", "forward_modal", "noise_modal", "inverse_cg", "oracle_check"]


@pytest.mark.parametrize("stage", _OFF_CHOLESKY)
def test_commands_off_the_cholesky_route_load_no_numpy_ma(loaded, stage):
    assert loaded[stage]["ma"] == []


@pytest.mark.parametrize("stage", _OFF_CHOLESKY)
def test_commands_off_the_cholesky_route_load_no_numpy_polynomial(loaded, stage):
    assert loaded[stage]["polynomial"] == []


def test_cholesky_route_loads_scipy_linalg(loaded):
    # the probe sees the modules SciPy brings in, so the empty lists above count
    assert loaded["inverse_cholesky"]["code"] == 0
    assert "scipy.linalg" in loaded["inverse_cholesky"]["scipy"]
    assert "numpy.ma" in loaded["inverse_cholesky"]["ma"]
    assert "numpy.polynomial" in loaded["inverse_cholesky"]["polynomial"]
