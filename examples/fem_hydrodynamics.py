"""High-order FEM mass-matrix batch, as in BLAST-style hydrodynamics.

Run:  python examples/fem_hydrodynamics.py

The paper cites "high-order FEM schemes for hydrodynamics" [10] as a
batched-computation consumer: every element carries a dense local mass
matrix of order ``(p+1)^2`` (2-D quads at polynomial order ``p``), and
an adaptive, mixed-order mesh yields *different* sizes in one sweep —
a textbook vbatched workload.  This example builds genuine local mass
matrices from Gauss-Legendre quadrature over tensor-product Lagrange
bases, Cholesky-factorizes the whole mesh in one vbatched call, and
applies the factors to invert the mass matrix action on a test field.
"""

import numpy as np

from repro import Device, OpOptions, VBatch, potrf_vbatched
from repro.hostblas import trsm


def lagrange_basis(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on ``nodes`` at points ``x``."""
    k = nodes.size
    out = np.ones((k, x.size))
    for i in range(k):
        for j in range(k):
            if i != j:
                out[i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return out


def element_mass_matrix(p: int, jacobian: float) -> np.ndarray:
    """Dense mass matrix of a 2-D tensor-product element of order ``p``."""
    nodes = np.cos(np.pi * np.arange(p + 1) / max(p, 1))[::-1]  # Chebyshev pts
    q, w = np.polynomial.legendre.leggauss(p + 2)
    phi = lagrange_basis(nodes, q)  # (p+1, nq)
    m1 = (phi * w) @ phi.T  # 1-D mass matrix
    return jacobian * np.kron(m1, m1)  # 2-D tensor product


def main():
    rng = np.random.default_rng(5)
    # Mixed-order adaptive mesh: mostly order 3-5, a few refined p=7-8
    # elements — sizes (p+1)^2 from 16 to 81.
    orders = rng.choice([3, 4, 5, 7, 8], size=400, p=[0.3, 0.3, 0.25, 0.1, 0.05])
    jacobians = rng.uniform(0.5, 2.0, size=orders.size)
    elements = [element_mass_matrix(int(p), float(j)) for p, j in zip(orders, jacobians)]
    sizes = np.array([e.shape[0] for e in elements])
    print(f"{len(elements)} elements, mass-matrix sizes {sizes.min()}..{sizes.max()}")

    device = Device()
    batch = VBatch.from_host(device, elements)
    device.reset_clock()
    result = potrf_vbatched(device, batch, OpOptions(on_error="raise"))
    print(f"vbatched dpotrf: {result.gflops:.1f} Gflop/s via {result.approach}, "
          f"{result.elapsed * 1e3:.3f} ms simulated")

    # Apply the factors: u = M^{-1} f per element (the mass-matrix
    # inversion inside every hydrodynamics time step).
    factors = batch.download_matrices()
    worst = 0.0
    for mass, factor in zip(elements, factors):
        n = mass.shape[0]
        f = rng.standard_normal((n, 1))
        y = trsm("l", "l", "n", "n", 1.0, np.tril(factor), f.copy())
        u = trsm("l", "l", "t", "n", 1.0, np.tril(factor), y)
        worst = max(worst, float(np.linalg.norm(mass @ u - f)))
    print(f"worst mass-inverse residual over the mesh: {worst:.2e}")
    assert worst < 1e-9


if __name__ == "__main__":
    main()
