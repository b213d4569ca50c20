"""Produce BENCH_pr5.json: the plan-optimizer PR's measured evidence.

Usage:  PYTHONPATH=src python tools/bench_pr5.py [--out BENCH_pr5.json]

Four measurements:

* fig7 warm wall clock, optimize none vs all (cached plans — the
  acceptance criterion's >= 1.2x warm speedup);
* serve-bench throughput with and without the optimizer;
* the 4-device fig3 workload traced, per-stream occupancy and simulated
  makespan before/after;
* the per-pass ablation tables from benchmarks/test_plan_optimizer.py
  attributing the win pass by pass.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchmarks.test_plan_optimizer import LEVELS, ablation_table  # noqa: E402
from perf_smoke import FIG7_SIZES, warm_wall  # noqa: E402

from repro import distributions as dist  # noqa: E402
from repro.core import PotrfOptions, VBatch  # noqa: E402
from repro.core.interface import potrf_vbatched_max  # noqa: E402
from repro.device import DeviceGroup  # noqa: E402
from repro.observability import Tracer, activate, analyze_trace  # noqa: E402
from repro.serving import run_serve_bench  # noqa: E402


def fig7_section() -> dict:
    rows = {}
    for nmax in FIG7_SIZES:
        base = warm_wall("none", nmax)
        opt = warm_wall("all", nmax)
        rows[str(nmax)] = {
            "none_ms": round(base * 1e3, 3),
            "all_ms": round(opt * 1e3, 3),
            "speedup": round(base / opt, 2),
        }
    return rows


def serve_section() -> dict:
    out = {}
    for level in ("none", "all"):
        t0 = time.perf_counter()
        report = run_serve_bench(
            requests=400, max_size=256, max_batch=32, concurrency=128, optimize=level
        )
        wall = time.perf_counter() - t0
        gw = report["policies"]["greedy-window"]
        out[level] = {
            "bench_wall_s": round(wall, 2),
            "greedy_window": {
                "matrices_per_sim_s": round(gw["throughput"]["matrices_per_sim_s"], 1),
                "matrices_per_wall_s": round(gw["throughput"]["matrices_per_wall_s"], 1),
                "p95_latency_wall_ms": round(gw["latency_wall_s"]["p95"] * 1e3, 3),
                "waste_pct": round(
                    100 * gw["batching"]["wasted_flops"] / gw["batching"]["padded_flops"], 1
                ),
            },
        }
    base = out["none"]["greedy_window"]["matrices_per_wall_s"]
    opt = out["all"]["greedy_window"]["matrices_per_wall_s"]
    out["wall_throughput_speedup"] = round(opt / base, 2)
    return out


def fig3_occupancy_section() -> dict:
    """The 4-device fig3 workload (uniform, 400 matrices, max 256, fp64,
    timing-only), traced; per-stream occupancy and simulated makespan.

    Two plan shapes: the default (auto -> fused) path, which is
    single-stream at this size so the optimizer leaves occupancy alone,
    and the streamed separated path, where barrier elision + LPT are
    what the occupancy criterion is about.
    """
    out = {}
    for label, options in (
        ("auto", PotrfOptions()),
        ("streamed", PotrfOptions(approach="separated", syrk_mode="streamed")),
    ):
        out[label] = {}
        for level in ("none", "all"):
            group = DeviceGroup.simulated(4, execute_numerics=False)
            sizes = dist.generate_sizes("uniform", 400, 256, seed=0)
            batch = VBatch.allocate(group.devices[0], sizes, "d")
            tracer = Tracer()
            with activate(tracer):
                result = potrf_vbatched_max(
                    group.devices[0],
                    batch,
                    int(sizes.max()),
                    options,
                    devices=group,
                    optimize=level,
                )
            occ = [
                o for o in analyze_trace(tracer).occupancy
                if o.thread.startswith("stream")
            ]
            occs = [o.occupancy for o in occ]
            out[label][level] = {
                "makespan_ms": round(result.elapsed * 1e3, 4),
                "stream_tracks": len(occ),
                "mean_stream_occupancy_pct": round(100 * float(np.mean(occs)), 1),
                "min_stream_occupancy_pct": round(100 * float(np.min(occs)), 1),
                "max_stream_occupancy_pct": round(100 * float(np.max(occs)), 1),
            }
        gain = (
            out[label]["all"]["mean_stream_occupancy_pct"]
            - out[label]["none"]["mean_stream_occupancy_pct"]
        )
        out[label]["mean_occupancy_gain_pct_points"] = round(gain, 1)
    return out


def ablation_section() -> dict:
    out = {"levels": list(LEVELS)}
    for shape in ("streamed", "fused"):
        out[shape] = {}
        for distribution in ("uniform", "gaussian"):
            rows = ablation_table(shape, distribution)
            out[shape][distribution] = [
                {k: (round(v, 4) if isinstance(v, float) else v) for k, v in r.items()}
                for r in rows
            ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=str(REPO / "BENCH_pr5.json"))
    args = parser.parse_args()

    report = {
        "pr": 5,
        "title": "LaunchPlan optimizer pass pipeline + parallel bucket execution",
        "date": datetime.date.today().isoformat(),
        "machine": (
            f"CI container, Python {platform.python_version()}, NumPy {np.__version__}"
        ),
        "method": (
            "fig7 warm wall clock = best of 5 cached-plan potrf_vbatched_max calls "
            "(uniform, 300 matrices, fp64, timing-only) per level. serve-bench on the "
            "reduced pr3 config (400 requests, max 256). fig3 occupancy from "
            "analyze_trace over a traced 4-device sharded run. Ablation tables from "
            "benchmarks/test_plan_optimizer.py (each pass alone, then all)."
        ),
        "fig7_warm_wall_clock": fig7_section(),
        "serve_bench": serve_section(),
        "fig3_4device_occupancy": fig3_occupancy_section(),
        "ablation": ablation_section(),
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
