"""The maintenance scripts under ``tools/`` keep working.

They import the package's public names but nothing else runs them, so
a renamed or deleted name would break them silently.  Every script
must import, and ``ext_lapack_ratio.py`` — which drives all four op
entry points — must run end to end on a tiny batch and act as a gate:
exit 1 on a ratio above its bound or an answer LAPACK disagrees with.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"_tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Scripts may pin BLAS threads or extend sys.path at import time;
    # keep that out of the rest of the session.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


def test_tools_are_found():
    assert {p.stem for p in TOOLS} >= {"calibrate", "ext_lapack_ratio", "perf_smoke"}


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.stem)
def test_tool_imports(path):
    assert callable(_load(path).main)


def _run_ratio(*args):
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ext_lapack_ratio.py"),
         "--batch", "4", "--orders", "4", "6", "--repeat", "1", *args],
        capture_output=True, text=True, timeout=300, check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_ext_lapack_ratio_runs_every_op():
    proc = _run_ratio()
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["potrf", "geqrf", "getrf", "gesvj"]
    assert all(float(row[-1]) > 0.0 for row in rows)


def test_ext_lapack_ratio_gate_passes_within_bounds():
    proc = _run_ratio("--ops", "gesvj", "geqrf", "--max-ratio", "gesvj=1e9", "geqrf=1e9")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_ext_lapack_ratio_gate_fails_above_bound():
    proc = _run_ratio("--ops", "gesvj", "geqrf", "--max-ratio", "gesvj=1e-9")
    assert proc.returncode == 1
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL gesvj: ratio")


def test_ext_lapack_ratio_rejects_wrong_answers():
    tool = _load(ROOT / "tools" / "ext_lapack_ratio.py")
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((n, n)) for n in (5, 7)]
    sigma = np.zeros((2, 7))
    factors = []
    for i, a in enumerate(mats):
        sigma[i, : len(a)] = np.linalg.svd(a, compute_uv=False)
        factors.append(scipy.linalg.qr(a, mode="r")[0])
    result = SimpleNamespace(outputs={"singular_values": sigma})
    assert tool.answer_errors("gesvj", mats, result, factors) == []
    assert tool.answer_errors("geqrf", mats, result, factors) == []
    sigma[1, 0] *= 1.0 + 1e-6
    factors[0][2, 2] *= 1.0 + 1e-6
    assert tool.answer_errors("gesvj", mats, result, factors) == [
        "gesvj: matrix 1 (n=7) disagrees with LAPACK"
    ]
    assert tool.answer_errors("geqrf", mats, result, factors) == [
        "geqrf: matrix 0 (n=5) disagrees with LAPACK"
    ]
    with pytest.raises(SystemExit):
        tool.parse_bounds(["gesvj"])


def test_ext_lapack_ratio_rejects_a_wrong_lu_factor():
    tool = _load(ROOT / "tools" / "ext_lapack_ratio.py")
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((n, n)) for n in (6, 9)]
    ipivs = np.zeros((2, 9), dtype=np.int64)
    factors = []
    for i, a in enumerate(mats):
        lu, piv = scipy.linalg.lu_factor(a)
        factors.append(lu)
        ipivs[i, : len(a)] = piv + 1  # LAPACK's 1-based rows
    result = SimpleNamespace(outputs={"ipivs": ipivs})
    assert tool.answer_errors("getrf", mats, result, factors) == []
    factors[1][4, 2] *= 1.0 + 1e-6  # an entry of L
    assert tool.answer_errors("getrf", mats, result, factors) == [
        "getrf: matrix 1 (n=9) disagrees with LAPACK"
    ]
    factors[1][4, 2] /= 1.0 + 1e-6
    ipivs[0, 0] = 1 + (ipivs[0, 0] % 6)  # a wrong pivot row
    assert tool.answer_errors("getrf", mats, result, factors) == [
        "getrf: matrix 0 (n=6) disagrees with LAPACK"
    ]
