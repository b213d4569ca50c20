"""Stiff chemical-kinetics integration with the vbatched LU extension.

Run:  python examples/chemical_kinetics_lu.py

The paper's related work (Villa et al. [25][26]) batches small LU
factorizations for subsurface-transport chemistry: every grid cell
carries an implicit ODE solve over its local species, and cells differ
in how many species are active — variable sizes again.  This example
integrates a batch of randomly-sized linear kinetics systems with one
backward-Euler step per cell,

    (I - dt * J_i) x_i = c_i,

factorizing all Jacobian systems at once with ``getrf_vbatched`` and
back-substituting with the host triangular kernels.
"""

import numpy as np

from repro import Device, VBatch, getrf_vbatched
from repro.hostblas import apply_pivots, trsm


def random_kinetics_jacobian(n, rng):
    """A stable reaction Jacobian: negative-dominant with sparse coupling."""
    j = rng.standard_normal((n, n)) * 0.3
    j[rng.random((n, n)) > 0.4] = 0.0
    j -= np.diag(np.abs(j).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return j


def main():
    rng = np.random.default_rng(11)
    n_cells = 500
    species_counts = rng.integers(4, 60, size=n_cells)
    dt = 0.05

    jacobians = [random_kinetics_jacobian(int(n), rng) for n in species_counts]
    concentrations = [rng.uniform(0.0, 1.0, int(n)) for n in species_counts]
    systems = [np.eye(int(n)) - dt * j for n, j in zip(species_counts, jacobians)]

    device = Device()
    batch = VBatch.from_host(device, systems)
    device.reset_clock()
    res = getrf_vbatched(device, batch)
    print(f"{n_cells} cells, species {species_counts.min()}..{species_counts.max()}")
    print(f"vbatched dgetrf: {res.gflops:.1f} Gflop/s, "
          f"{res.elapsed * 1e3:.3f} ms simulated, failures: {res.failed_count}")
    assert res.failed_count == 0

    # Back-substitution per cell: P L U x = c.
    factors = batch.download_matrices()
    worst = 0.0
    new_conc = []
    for i, (f, c) in enumerate(zip(factors, concentrations)):
        n = int(species_counts[i])
        y = apply_pivots(c.copy()[:, None], res.outputs["ipivs"][i, :n])
        trsm("l", "l", "n", "u", 1.0, f, y)
        trsm("l", "u", "n", "n", 1.0, f, y)
        x = y[:, 0]
        worst = max(worst, float(np.linalg.norm(systems[i] @ x - c)))
        new_conc.append(x)
    print(f"worst backward-Euler residual: {worst:.2e}")
    assert worst < 1e-9

    # One sanity property of the physics: with a stable Jacobian the
    # implicit step contracts towards equilibrium (no blow-up).
    growth = max(
        np.linalg.norm(x) / max(np.linalg.norm(c), 1e-30)
        for x, c in zip(new_conc, concentrations)
    )
    print(f"max step growth factor: {growth:.3f}")
    assert growth < 2.0


if __name__ == "__main__":
    main()
