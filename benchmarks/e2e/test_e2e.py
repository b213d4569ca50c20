"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` (outside the tier-1
``testpaths``); the workload tests start real benchmark runs and take
about a minute together.
"""

from __future__ import annotations

import contextvars
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import compare
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(*args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )


def last_record(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_completes_at_tiny_seconds(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    rec = last_record(proc)
    assert set(rec) == {"correct", "attempted", "failed", "metrics"}
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
    assert list(rec["metrics"]) == END_TO_END
    for name in END_TO_END:
        assert rec["metrics"][name]["value"] > 0, name
        assert f"   {name} " in proc.stdout  # printed by name with its unit


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "lib-potrf", "--seed", "2", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_record(proc)["metrics"]
    assert list(metrics) == PER_LAYER
    assert metrics["kernels.numerics.self_s"]["value"] > 0
    assert metrics["device.cost_model.calls"]["value"] > 0


def test_corrupted_factor_fails_the_run(tmp_path):
    # Corrupt one returned factor inside the program; the benchmark's own
    # oracle must notice.
    (tmp_path / "sitecustomize.py").write_text(
        "try:\n"
        "    from repro.core.batch import VBatch\n"
        "except ImportError:\n"
        "    VBatch = None\n"
        "if VBatch is not None:\n"
        "    _download = VBatch.download_matrices\n"
        "    def _corrupt(self):\n"
        "        out = _download(self)\n"
        "        out[0] = out[0] + 1e-3\n"
        "        return out\n"
        "    VBatch.download_matrices = _corrupt\n"
    )
    env = {"PYTHONPATH": str(tmp_path), "PATH": "/usr/bin:/bin"}
    proc = bench("--workload", "lib-potrf", "--seconds", "0.5", env=env)
    assert proc.returncode == 1, proc.stderr
    rec = last_record(proc)
    assert rec["correct"] is False and rec["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lib-potrf", "--seconds", "0.5", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_zero_reference_is_bench_pr3():
    pr3 = ROOT / "BENCH_pr3.json"
    if not pr3.exists():
        pytest.skip("BENCH_pr3.json is not in this checkout")
    ref = json.loads((HERE / "sim_reference.json").read_text())["seeds"]["0"]
    policies = json.loads(pr3.read_text())["policies"]
    for name, numbers in ref.items():
        assert numbers["matrices_per_sim_s"] == policies[name]["throughput"]["matrices_per_sim_s"]
        assert numbers["wasted_flops"] == policies[name]["batching"]["wasted_flops"]


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
def records(values, metric="latency_ms", workload="w", failed=0):
    return [
        {"workload": workload, "seed": seed, "trace": 0, "attempted": 100, "failed": failed,
         "metrics": {metric: {"value": v, "unit": "ms"}}}
        for seed, v in enumerate(values)
    ]


SPEC_LOWER = [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]


def verdicts(a, b, **kw):
    rows, failing = compare.compare(records(a, **kw), records(b, **kw), SPEC_LOWER)
    return [r["verdict"] for r in rows], failing


def test_compare_same():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdicts(base, [v + 0.5 for v in base]) == (["same"], False)


def test_compare_worse_fails():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdicts(base, [v * 1.2 for v in base]) == (["worse"], True)


def test_compare_better():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdicts(base, [v * 0.9 for v in base]) == (["better"], False)


def test_compare_better_needs_nine_of_ten_paired_wins():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cand = [v * 0.9 for v in base]
    cand[0], cand[1] = 102, 102  # two of ten seeds lose
    assert verdicts(base, cand) == (["same"], False)


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdicts(noisy, [v * 0.97 for v in noisy]) == (["unresolved"], False)


def test_compare_wide_spread_resolved_when_every_run_wins():
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdicts(noisy, [v / 10 for v in noisy]) == (["better"], False)


def test_compare_fails_when_failed_share_rises():
    base = [100] * 5
    rows, failing = compare.compare(records(base), records(base, failed=1), SPEC_LOWER)
    assert failing and rows[-1]["metric"] == "failed_share"


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # parent [0, 10] with children [1, 3] and [2, 6] (overlapping) and a
    # grandchild [4, 5] inside the second child.
    got = spans.self_times([
        (1, 0, "a", 0.0, 10.0),
        (2, 1, "b", 1.0, 3.0),
        (3, 1, "b", 2.0, 6.0),
        (4, 3, "c", 4.0, 5.0),
    ])
    assert got == pytest.approx({"a": 5.0, "b": 2.0 + 3.0, "c": 1.0})


def test_self_time_of_spans_on_two_threads():
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda: time.sleep(0.05))

    def outer():
        # Each child runs on its own thread under a copy of this context,
        # the way repro's sharded executor submits work.
        ctx = contextvars.copy_context()
        threads = [threading.Thread(target=ctx.copy().run, args=(leaf,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        time.sleep(0.05)

    rec.wrap("outer", outer)()
    recorded = rec.spans
    outer_span = next(s for s in recorded if s[2] == "outer")
    leaves = [s for s in recorded if s[2] == "leaf"]
    assert len(leaves) == 2 and all(s[1] == outer_span[0] for s in leaves)
    assert len({name for name, buf in rec._buffers if buf}) == 3
    got = spans.self_times(recorded)
    # Two concurrent 50 ms leaves cover one ~50 ms stretch of the parent.
    assert got["leaf"] == pytest.approx(0.10, abs=0.03)
    assert got["outer"] == pytest.approx(0.05, abs=0.03)
