"""Kernel numerics vs per-matrix LAPACK on small square tiles.

Usage:  PYTHONPATH=src python tools/ext_lapack_ratio.py [--batch 40]
        [--orders 8 16] [--repeat 7] [--seed 0] [--ops potrf geqrf ...]
        [--max-ratio gesvj=45 geqrf=9 ...]

Factors one batch of random square matrices (orders uniform in
``--orders``; the default 8..16 is the cluster size of the e2e
``hmatrix`` workload) with ``potrf``/``geqrf``/``getrf``/``gesvj_vbatched``
and times only the functional plane: the summed ``run_numerics`` of
every launched kernel.  The floor is a per-matrix numpy/scipy loop on
the same matrices: ``np.linalg.cholesky`` (potrf),
``scipy.linalg.qr(mode="raw")`` (geqrf), ``scipy.linalg.lu_factor``
(getrf) and ``np.linalg.svd`` (gesvj; LAPACK gesdd).  Prints the best
of ``--repeat`` runs of each and their ratio.  BLAS is pinned to one
thread.

The potrf lower factors, the gesvj singular values and the geqrf
``|diag R|`` are checked against the floor's answers, and every getrf
factor must rebuild its input (``P L U`` from the factor and its
pivots), so a fast but wrong path cannot pass.
``--max-ratio OP=X`` makes the script a gate: it exits 1 when a
checked answer is wrong or an op's ratio is above its bound.
"""

from __future__ import annotations

import argparse
import os
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from repro import Device, VBatch, potrf_vbatched  # noqa: E402
from repro.device.kernel import Kernel  # noqa: E402
from repro.extensions import geqrf_vbatched, gesvj_vbatched, getrf_vbatched  # noqa: E402
from repro.hostblas import make_spd  # noqa: E402

class NumericsClock:
    """Sums the wall time of every kernel's ``run_numerics``."""

    def __init__(self):
        self.total_s = 0.0
        self._depth = 0

    def instrument(self, cls=Kernel) -> None:
        for sub in cls.__subclasses__():
            if "run_numerics" in vars(sub):
                sub.run_numerics = self._timed(vars(sub)["run_numerics"])
            self.instrument(sub)

    def _timed(self, run_numerics):
        def wrapper(kernel, operands):
            self._depth += 1
            start = time.perf_counter()
            try:
                run_numerics(kernel, operands)
            finally:
                self._depth -= 1
                if self._depth == 0:  # a subclass calling super() counts once
                    self.total_s += time.perf_counter() - start

        return wrapper


OPS = {
    "potrf": (potrf_vbatched, np.linalg.cholesky),
    "geqrf": (geqrf_vbatched, lambda a: scipy.linalg.qr(a, mode="raw")),
    "getrf": (getrf_vbatched, scipy.linalg.lu_factor),
    "gesvj": (gesvj_vbatched, np.linalg.svd),
}


def best_numerics_s(clock: NumericsClock, driver, mats, repeat: int):
    """Best summed ``run_numerics`` time, with the last run's result and
    downloaded matrices."""
    device = Device()
    best = float("inf")
    for _ in range(repeat):
        batch = VBatch.from_host(device, [m.copy() for m in mats])
        clock.total_s = 0.0
        result = driver(device, batch)
        best = min(best, clock.total_s)
        factors = batch.download_matrices()
        batch.free()
    return best, result, factors


def lu_product(factor, ipiv):
    """``P L U`` rebuilt from a packed LU factor and its 1-based pivots."""
    n = factor.shape[0]
    product = (np.tril(factor, -1) + np.eye(n)) @ np.triu(factor)
    for j in reversed(range(n)):
        p = int(ipiv[j]) - 1
        product[[j, p]] = product[[p, j]]
    return product


def answer_errors(op: str, mats, result, factors) -> list[str]:
    """Where the timed answers disagree with LAPACK's (potrf lower
    factors, gesvj singular values, geqrf ``|diag R|``) or, for getrf,
    where ``P L U`` does not rebuild the input."""
    errors = []
    for i, (a, f) in enumerate(zip(mats, factors)):
        n = a.shape[0]
        if op == "getrf":
            got, want = lu_product(f, result.outputs["ipivs"][i, :n]), a
            scale = np.abs(want).max()
        elif op == "potrf":
            got, want = np.tril(f), np.linalg.cholesky(a)
            scale = np.abs(want).max()
        elif op == "gesvj":
            got = result.outputs["singular_values"][i, :n]
            want = np.linalg.svd(a, compute_uv=False)
            scale = want[0]
        else:
            got = np.abs(np.diag(f))
            want = np.abs(np.diag(scipy.linalg.qr(a, mode="r")[0]))
            scale = want[0]
        if not np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(scale, 1.0)):
            errors.append(f"{op}: matrix {i} (n={n}) disagrees with LAPACK")
    return errors


def parse_bounds(items) -> dict[str, float]:
    bounds = {}
    for item in items:
        op, sep, value = item.partition("=")
        if not sep or op not in OPS:
            raise SystemExit(f"--max-ratio wants OP=X with OP in {sorted(OPS)}, got {item!r}")
        bounds[op] = float(value)
    return bounds


def best_lapack_s(routine, mats, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for m in mats:
            routine(m)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, default=40)
    parser.add_argument("--orders", type=int, nargs=2, default=(8, 16), metavar=("LO", "HI"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", nargs="+", choices=list(OPS), default=list(OPS))
    parser.add_argument("--max-ratio", nargs="+", default=[], metavar="OP=X",
                        help="exit 1 when OP's numerics/LAPACK ratio is above X")
    args = parser.parse_args(argv)
    bounds = parse_bounds(args.max_ratio)
    clock = NumericsClock()
    clock.instrument()
    rng = np.random.default_rng(args.seed)
    orders = rng.integers(args.orders[0], args.orders[1] + 1, size=args.batch)
    general = [rng.standard_normal((n, n)) for n in orders]
    inputs = {
        "potrf": [make_spd(int(n), "d", seed=args.seed + i) for i, n in enumerate(orders)],
        "geqrf": general,
        "getrf": general,
        # The hmatrix workload feeds gesvj the R factor of each tile.
        "gesvj": [np.triu(scipy.linalg.qr(a, mode="r")[0]) for a in general],
    }
    print(f"batch {args.batch}, orders {args.orders[0]}..{args.orders[1]}, "
          f"best of {args.repeat}")
    print(f"{'op':6} {'numerics_ms':>12} {'lapack_ms':>10} {'ratio':>7}")
    failures = []
    for op in args.ops:
        driver, routine = OPS[op]
        ours, result, factors = best_numerics_s(clock, driver, inputs[op], args.repeat)
        floor = best_lapack_s(routine, inputs[op], args.repeat)
        print(f"{op:6} {ours * 1e3:12.2f} {floor * 1e3:10.2f} {ours / floor:7.1f}")
        failures += answer_errors(op, inputs[op], result, factors)
        if op in bounds and not ours / floor <= bounds[op]:
            failures.append(f"{op}: ratio {ours / floor:.1f} above its bound {bounds[op]:g}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
