"""Per-sensor least squares with the vbatched QR extension.

Run:  python examples/sensor_least_squares.py

A sensor network fits a local polynomial model per node: each node has
its own observation count (dropouts, duty cycles) and model order, so
the normal panels are tall-skinny matrices of *varying* shapes — batched
QR territory (the paper's signal-processing motivation [8]).  We QR-
factorize every node's design matrix in one ``geqrf_vbatched`` call and
solve the triangular systems for the model coefficients.

Design matrices are square-embedded (QR of the leading ``m_i x p_i``
panel of an ``m_i x m_i`` buffer) since the vbatched container is
square; the math uses only the factored panel.
"""

import numpy as np

from repro import Device, VBatch, geqrf_vbatched
from repro.hostblas import build_q, trsm


def design_matrix(times, order):
    """Vandermonde-style polynomial design matrix."""
    return np.vander(times, order + 1, increasing=True)


def main():
    rng = np.random.default_rng(17)
    n_sensors = 300
    truth_coeffs = {}
    systems, targets, shapes = [], [], []
    for s in range(n_sensors):
        m = int(rng.integers(12, 96))          # observations at this node
        p = int(rng.integers(2, min(7, m - 1)))  # local model order
        t = np.sort(rng.uniform(-1, 1, m))
        X = design_matrix(t, p)
        beta = rng.standard_normal(p + 1)
        y = X @ beta + 0.01 * rng.standard_normal(m)
        truth_coeffs[s] = beta
        # Square embedding: the QR of the m x m buffer factors the
        # leading panel exactly (remaining columns are zero).
        buf = np.zeros((m, m))
        buf[:, : p + 1] = X
        systems.append(buf)
        targets.append(y)
        shapes.append((m, p + 1))

    device = Device()
    batch = VBatch.from_host(device, systems)
    device.reset_clock()
    res = geqrf_vbatched(device, batch)
    print(f"{n_sensors} sensors, panels {min(m for m, _ in shapes)}x2 .. "
          f"{max(m for m, _ in shapes)}x7")
    print(f"vbatched dgeqrf: {res.gflops:.1f} Gflop/s, "
          f"{res.elapsed * 1e3:.3f} ms simulated")

    factors = batch.download_matrices()
    worst_fit = 0.0
    for s, (m, cols) in enumerate(shapes):
        f = factors[s]
        q = build_q(f, res.outputs["taus"][s, :m])
        r = np.triu(f)[:cols, :cols]
        qty = (q.T @ targets[s])[:cols]
        beta_hat = trsm("l", "u", "n", "n", 1.0, r, qty[:, None].copy())[:, 0]
        worst_fit = max(worst_fit, float(np.max(np.abs(beta_hat - truth_coeffs[s]))))
    print(f"worst coefficient error across the network: {worst_fit:.3f}")
    assert worst_fit < 0.5, "least-squares fits should recover the models"


if __name__ == "__main__":
    main()
