"""Local RX anomaly detection on hyperspectral imagery via batched Cholesky.

Run:  python examples/rx_anomaly_detection.py

The paper cites Molero et al., "A batched Cholesky solver for local RX
anomaly detection on GPUs" [22], as a motivating application.  The
local Reed-Xiaoli detector computes, per pixel, the Mahalanobis
distance of the pixel's spectrum to its neighbourhood statistics:

    RX(r) = (r - mu)^T  C^{-1}  (r - mu)

with ``C`` the covariance of a sliding window.  Tiles at image borders
produce *smaller* windows -> covariance matrices of varying effective
band counts: a vbatched POTRF + vbatched POTRS pipeline end to end.
"""

import numpy as np

from repro import Device, OpOptions, VBatch, potrf_vbatched, potrs_vbatched


def synthetic_hyperspectral_cube(height, width, bands, seed=0):
    """Smooth background with correlated bands plus a few implanted targets."""
    rng = np.random.default_rng(seed)
    mixing = rng.standard_normal((bands, 6))
    sources = rng.standard_normal((6, height * width))
    cube = (mixing @ sources).T.reshape(height, width, bands)
    cube += 0.1 * rng.standard_normal(cube.shape)
    targets = [(height // 4, width // 3), (height // 2, 2 * width // 3), (3 * height // 4, width // 5)]
    signature = rng.standard_normal(bands) * 4.0
    for (ty, tx) in targets:
        cube[ty, tx] += signature
    return cube, targets


def main():
    height, width, bands = 24, 24, 40
    cube, targets = synthetic_hyperspectral_cube(height, width, bands, seed=3)
    half = 5  # sliding half-window

    # Per-pixel neighbourhood covariances.  Border pixels see clipped
    # windows; we keep the covariance order equal to min(#samples-1,
    # bands) so border matrices genuinely shrink -> variable sizes.
    covs, rhs, used_bands, coords = [], [], [], []
    for y in range(0, height, 2):          # stride 2: tile centres
        for x in range(0, width, 2):
            y0, y1 = max(0, y - half), min(height, y + half + 1)
            x0, x1 = max(0, x - half), min(width, x + half + 1)
            window = cube[y0:y1, x0:x1].reshape(-1, bands)
            nb_eff = min(bands, window.shape[0] - 2)
            sub = window[:, :nb_eff]
            mu = sub.mean(axis=0)
            centered = sub - mu
            c = centered.T @ centered / (sub.shape[0] - 1)
            c += 1e-3 * np.trace(c) / nb_eff * np.eye(nb_eff)  # regularize
            covs.append(np.ascontiguousarray(c))
            rhs.append((cube[y, x, :nb_eff] - mu).copy())
            used_bands.append(nb_eff)
            coords.append((y, x))

    sizes = np.array(used_bands)
    print(f"{len(covs)} windows, covariance orders {sizes.min()}..{sizes.max()}")

    device = Device()
    batch = VBatch.from_host(device, covs)
    device.reset_clock()
    fact = potrf_vbatched(device, batch, OpOptions(on_error="raise"))
    diffs = [r.copy() for r in rhs]
    solve = potrs_vbatched(device, batch, diffs)
    print(f"factorize: {fact.gflops:.1f} Gflop/s ({fact.approach}); "
          f"solve: {solve.elapsed * 1e6:.1f} us simulated")

    # Mahalanobis scores: (r-mu)^T C^{-1} (r-mu) = (r-mu)^T x.
    scores = np.array([float(r @ x) for r, x in zip(rhs, diffs)])
    order = np.argsort(-scores)
    top = [coords[i] for i in order[:6]]
    print("top anomaly tiles:", top)

    found = {
        (ty, tx)
        for (ty, tx) in targets
        if any(abs(ty - y) <= 2 and abs(tx - x) <= 2 for (y, x) in top)
    }
    print(f"implanted targets recovered by top-6 tiles: {len(found)}/{len(targets)}")
    assert len(found) >= 2, "the detector should flag most implanted targets"


if __name__ == "__main__":
    main()
