"""Quickstart: factorize a variable-size batch and verify the factors.

Run:  python examples/quickstart.py

Walks through the full public API: generate a size sample, build SPD
matrices, upload them into a :class:`VBatch`, call the LAPACK-like
vbatched interface, and check every factor against the originals.
"""

import numpy as np

from repro import Device, OpOptions, VBatch, make_spd_batch, potrf_vbatched
from repro.distributions import uniform_sizes
from repro.flops import batch_flops
from repro.hostblas import cholesky_residual


def main():
    # 200 SPD matrices with sizes drawn uniformly from [1, 128].
    sizes = uniform_sizes(batch_count=200, max_size=128, seed=42)
    print(f"batch of {sizes.size} matrices, sizes {sizes.min()}..{sizes.max()}")

    device = Device()  # a simulated Tesla K40c
    host_matrices = make_spd_batch(sizes, precision="d", seed=7)
    batch = VBatch.from_host(device, host_matrices)

    # Time the factorization only, not the uploads.
    device.reset_clock()
    result = potrf_vbatched(device, batch, OpOptions(on_error="raise"))

    print(f"approach selected : {result.approach}")
    print(f"simulated time    : {result.elapsed * 1e3:.3f} ms")
    print(f"throughput        : {result.gflops:.1f} Gflop/s "
          f"({batch_flops(sizes):.3g} flops)")
    print(f"launches          : {result.launch_stats}")

    factors = batch.download_matrices()
    worst = max(
        cholesky_residual(a, l) for a, l in zip(host_matrices, factors)
    )
    print(f"worst residual    : {worst:.2e}  (||A - L L^T|| / (n ||A||))")
    assert worst < 1e-13, "factorization must be backward stable"

    # Use a factor: solve A x = b for the largest matrix via its L.
    import scipy.linalg as sla

    i = int(np.argmax(sizes))
    n = int(sizes[i])
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    l = np.tril(factors[i])
    x = sla.solve_triangular(l.T, sla.solve_triangular(l, b, lower=True), lower=False)
    print(f"solve check       : ||Ax - b|| = {np.linalg.norm(host_matrices[i] @ x - b):.2e}")


if __name__ == "__main__":
    main()
