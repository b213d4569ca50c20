"""The benchmark's correctness oracle, independent of ``repro``'s checks.

Every function returns a list of error strings (empty when the answer
is right).  Workloads call them after each measured phase, outside the
timed window, on the answers the program handed back.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POTRF_RESIDUAL = 1e-13
SOLVE_RESIDUAL = 1e-12
HMATRIX_ERROR_FACTOR = 50.0

#: Per-policy simulated numbers of ``run_serve_bench(seed=s)`` recorded
#: when the benchmark was defined; seed 0 equals BENCH_pr3.json.
SIM_REFERENCE = Path(__file__).with_name("sim_reference.json")


def potrf_flops(n) -> float:
    """LAPACK's Cholesky count ``n^3/3 + n^2/2 + n/6`` (real flops)."""
    n = np.asarray(n, dtype=np.float64)
    return float(np.sum(n**3 / 3.0 + n**2 / 2.0 + n / 6.0))


def check_cholesky(a: np.ndarray, factor, info: int, label: str) -> list[str]:
    """``info == 0`` and ``||A - L L^T||_F / ||A||_F <= 1e-13``."""
    if info != 0:
        return [f"{label}: info={info}"]
    if factor is None or factor.shape != a.shape:
        return [f"{label}: no factor returned"]
    lower = np.tril(factor)
    rel = np.linalg.norm(a - lower @ lower.T) / max(np.linalg.norm(a), 1e-300)
    if not rel <= POTRF_RESIDUAL:
        return [f"{label}: Cholesky residual {rel:.2e} > {POTRF_RESIDUAL:.0e}"]
    return []


def check_solve(a: np.ndarray, b: np.ndarray, x, info: int, label: str) -> list[str]:
    """``info == 0`` and ``||A x - b|| / (||A|| ||x||) <= 1e-12``."""
    if info != 0:
        return [f"{label}: info={info}"]
    if x is None or x.shape != b.shape:
        return [f"{label}: no solution returned"]
    rel = np.linalg.norm(a @ x - b) / max(np.linalg.norm(a) * np.linalg.norm(x), 1e-300)
    if not rel <= SOLVE_RESIDUAL:
        return [f"{label}: solve residual {rel:.2e} > {SOLVE_RESIDUAL:.0e}"]
    return []


def check_hmatrix(result, label: str) -> list[str]:
    """Tile error within ``50 * tol`` and no failed diagonal Cholesky."""
    errors = []
    if result.potrf_failures:
        errors.append(f"{label}: {result.potrf_failures} diagonal Cholesky failures")
    limit = HMATRIX_ERROR_FACTOR * result.tol
    if not result.max_rel_error <= limit:
        errors.append(f"{label}: max tile error {result.max_rel_error:.2e} > {limit:.1e}")
    if not result.ranks:
        errors.append(f"{label}: no tile was compressed")
    return errors


def sim_numbers(report: dict) -> dict:
    """The per-policy numbers a serve-bench report is checked on."""
    return {
        name: {
            "matrices_per_sim_s": snap["throughput"]["matrices_per_sim_s"],
            "wasted_flops": snap["batching"]["wasted_flops"],
        }
        for name, snap in report["policies"].items()
    }


def load_sim_reference() -> dict:
    with open(SIM_REFERENCE) as fh:
        return json.load(fh)["seeds"]


def check_serve_sim(report: dict, sizes, reference: dict | None, label: str) -> list[str]:
    """Invariants of a timing-only serve-bench run, plus exact equality
    of each policy it ran with the recorded reference when one exists
    for its seed.

    ``sizes`` is the request size stream, regenerated by the benchmark:
    every policy must serve each request once and book exactly its
    Cholesky flops as useful work.
    """
    errors = []
    useful = potrf_flops(sizes)
    for name, snap in report["policies"].items():
        req = snap["requests"]
        if snap["served"] != len(sizes) or req["completed"] != len(sizes):
            errors.append(f"{label}/{name}: served {snap['served']} of {len(sizes)}")
        bad = req["failed"] + req["rejected"] + req["cancelled"]
        if bad:
            errors.append(f"{label}/{name}: {bad} requests failed")
        batching = snap["batching"]
        if not np.isclose(batching["useful_flops"], useful, rtol=1e-12, atol=0.0):
            errors.append(f"{label}/{name}: useful flops {batching['useful_flops']} != {useful}")
        if batching["wasted_flops"] != batching["padded_flops"] - batching["useful_flops"]:
            errors.append(f"{label}/{name}: wasted flops do not add up")
        if batching["wasted_flops"] < 0 or (name == "per-request" and batching["wasted_flops"]):
            errors.append(f"{label}/{name}: wasted flops {batching['wasted_flops']}")
    if reference is not None:
        for name, numbers in sim_numbers(report).items():
            if numbers != reference[name]:
                errors.append(f"{label}/{name}: simulated numbers differ from the reference")
    return errors


def record_sim_reference(seeds) -> dict:
    """Run the ``BENCH_pr3.json`` serve-bench config for ``seeds``; return the table
    ``sim_reference.json`` holds (needs ``src`` on ``PYTHONPATH``)."""
    from repro.serving.loadgen import run_serve_bench

    return {
        "config": "run_serve_bench(requests=2000, max_size=256, seed=s), timing only",
        "seeds": {str(s): sim_numbers(run_serve_bench(seed=s)) for s in seeds},
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Re-record the serve-sim reference table.")
    parser.add_argument("--seeds", type=int, default=16, help="record seeds 0..N-1")
    args = parser.parse_args()
    table = record_sim_reference(range(args.seeds))
    SIM_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SIM_REFERENCE} ({args.seeds} seeds)")
