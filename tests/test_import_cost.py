"""``import repro`` stays light: neither networkx nor scipy loads.

networkx (about 340 modules and 16 MB) is needed only by the
multifrontal orderings, which import it on their first call; scipy is
never imported under ``src/repro``.  Every entry point the benchmark
and the CLI start from is checked in a fresh interpreter, since this
test session has both packages loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("networkx", "scipy")
ENTRY_POINTS = [
    "import repro",
    "import repro.__main__",
    "from repro.apps.hmatrix import compress_kernel_matrix",
    "from repro.serving.loadgen import run_serve_bench",
]


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        check=False, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Prints which of HEAVY the fresh interpreter has loaded.
LOADED = f"json.dumps([m for m in {HEAVY!r} if m in sys.modules])"


@pytest.mark.parametrize("statement", ENTRY_POINTS)
def test_entry_point_loads_neither_networkx_nor_scipy(statement):
    assert _fresh(f"import json, sys\n{statement}\nprint({LOADED})") == []


def test_nested_dissection_still_orders_after_a_light_import():
    code = f"""
import json, sys
from repro.multifrontal import nested_dissection
before = {LOADED}
import networkx as nx
g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 6))
forest = nested_dissection(g, min_size=4)
print(json.dumps({{"before": json.loads(before),
                  "vertices": sorted(v for t in forest for v in t.subtree_vertices),
                  "separator": forest[0].vertices, "children": len(forest[0].children)}}))
"""
    out = _fresh(code)
    assert out["before"] == []
    assert out["vertices"] == list(range(36))
    assert out["separator"] and out["children"] == 2
