"""CI perf-regression smoke for the plan optimizer (PR 5 satellite).

Usage:  PYTHONPATH=src python tools/perf_smoke.py

Two checks, both on small fixed-seed workloads:

1. Reduced fig7 harness — warm wall clock (plan served from a
   PlanCache) with ``optimize="all"`` must be no slower than the
   unoptimized path at every size.  The optimizer's schedule
   precomputation makes warm re-execution launch-bound, so a loss here
   means a pass started paying more at execute time than it saves.

2. ``run_serve_bench`` with ``optimize="all"`` — the serving acceptance
   margins (size-aware >= 2x per-request) must still hold, and the
   greedy-window policy's padded-flops waste must stay below the 30%
   ceiling recorded against BENCH_pr3.json (measured 26%): optimized
   plans must not change what the batcher dispatches.

Exit status 0 = all checks pass, 1 = a perf regression.
"""

from __future__ import annotations

import sys
import time

from repro import distributions as dist
from repro.core import OpOptions, PlanCache, VBatch, potrf_vbatched_max
from repro.device import Device
from repro.serving import check_acceptance, run_serve_bench

REPS = 5
#: Warm-path noise allowance; the measured win is >2x, a 5% band only
#: catches real regressions.
WALL_TOL = 1.05
#: BENCH_pr3.json recorded 26% greedy-window waste; fail above this.
WASTE_CEILING = 0.30
FIG7_SIZES = (128, 256, 512)


def warm_wall(optimize: str, nmax: int, count: int = 300, seed: int = 0) -> float:
    """Best-of-REPS warm wall seconds for one cached fig7 cell."""
    device = Device(execute_numerics=False)
    sizes = dist.generate_sizes("uniform", count, nmax, seed=seed)
    batch = VBatch.allocate(device, sizes, "d")
    cache = PlanCache()
    opts = OpOptions()
    potrf_vbatched_max(
        device, batch, nmax, opts, plan_cache=cache, optimize=optimize
    )  # cold call: plan + optimize + cache
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        potrf_vbatched_max(
            device, batch, nmax, opts, plan_cache=cache, optimize=optimize
        )
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    failures = 0

    print("fig7-reduced warm wall clock (uniform, 300 matrices, cached plans):")
    for nmax in FIG7_SIZES:
        base = warm_wall("none", nmax)
        opt = warm_wall("all", nmax)
        verdict = "OK" if opt <= base * WALL_TOL else "REGRESSION"
        if verdict != "OK":
            failures += 1
        print(
            f"  {verdict:10} nmax={nmax:4}: none {base * 1e3:7.2f} ms, "
            f"all {opt * 1e3:7.2f} ms ({base / opt:5.2f}x)"
        )

    # Reduced BENCH_pr3 config (same max_size/max_batch/concurrency,
    # fewer requests): the 30% waste ceiling is calibrated against that
    # workload shape, and the tiny --smoke shape pads more by design.
    print("\nserve-bench (reduced pr3 config) with optimize=all:")
    report = run_serve_bench(
        requests=400, max_size=256, max_batch=32, concurrency=128, optimize="all"
    )
    for msg in check_acceptance(report):
        print(f"  REGRESSION serving acceptance: {msg}")
        failures += 1
    gw = report["policies"]["greedy-window"]["batching"]
    waste = gw["wasted_flops"] / gw["padded_flops"]
    verdict = "OK" if waste <= WASTE_CEILING else "REGRESSION"
    if verdict != "OK":
        failures += 1
    print(
        f"  {verdict:10} greedy-window padded-flops waste "
        f"{waste * 100:.1f}% (ceiling {WASTE_CEILING * 100:.0f}%)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
