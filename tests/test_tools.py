"""The maintenance scripts under ``tools/`` keep working.

They import the package's public names but nothing else runs them, so
a renamed or deleted name would break them silently.  Every script
must import, and ``ext_lapack_ratio.py`` — which drives all four op
entry points — must run end to end on a tiny batch.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def test_tools_are_found():
    assert {p.stem for p in TOOLS} >= {"calibrate", "ext_lapack_ratio", "perf_smoke"}


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.stem)
def test_tool_imports(path):
    spec = importlib.util.spec_from_file_location(f"_tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Scripts may pin BLAS threads or extend sys.path at import time;
    # keep that out of the rest of the session.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    assert callable(module.main)


def test_ext_lapack_ratio_runs_every_op():
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ext_lapack_ratio.py"),
         "--batch", "4", "--orders", "4", "6", "--repeat", "1"],
        capture_output=True, text=True, timeout=300, check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["potrf", "geqrf", "getrf", "gesvj"]
    assert all(float(row[-1]) > 0.0 for row in rows)
