"""Hierarchical-matrix compression as a mixed-operation serving workload.

The application the paper's "future directions" point at: block
low-rank (BLR) compression of a smooth kernel matrix.  Points on a line
are clustered into *ragged* index blocks; the kernel matrix over them
decomposes into tiles whose treatment differs by position:

* **diagonal tiles** are symmetric positive definite after
  regularization — the solver phase Cholesky-factorizes them
  (``op="potrf"`` requests);
* **adjacent off-diagonal tiles** are inadmissible (the clusters
  touch) and stay dense;
* **well-separated tiles** are numerically low-rank — each is
  compressed by batched QR (``op="geqrf"``) followed by a truncated
  one-sided Jacobi SVD of its ``R`` factor (``op="gesvj"``):
  ``A = QR``, ``R = U S V^T`` gives ``A ~= (Q U_r) S_r V_r^T`` at
  rank ``r``.

Every factorization is submitted to one :class:`~repro.serving.server.
BatchServer` as an individual request, exactly the way an application
would: the server's op-aware windowing aggregates the ragged tiles of
one phase into vbatched launches.  Tiles are rectangular in general;
each is embedded in the square matrix of order ``max(m, n)`` (zero
padding changes no singular value and wastes the same padded flops a
fixed-size batch would — the quantity the metrics already track).

``run_hmatrix_bench`` adds the scheduling half of the story: the same
imbalanced QR/SVD/POTRF request stream served by one shared cross-op
server over a 3-device group versus three op-segregated single-device
servers.  With per-op arrival rates unequal, segregation strands
devices on the light operations while the heavy one queues; the shared
server keeps every device on whatever batch is due — higher throughput
at equal-or-lower padded-flops waste is the bench's acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.device import Device
from ..device.topology import DeviceGroup
from ..errors import ArgumentError
from ..hostblas import stacked_larft
from ..serving.loadgen import _bench_matrices
from ..serving.server import BatchServer

__all__ = [
    "HmatrixResult",
    "check_hmatrix_acceptance",
    "compress_kernel_matrix",
    "run_hmatrix_bench",
]


# ----------------------------------------------------------------------
# problem construction
# ----------------------------------------------------------------------
def _kernel_matrix(n_points: int, lengthscale: float, seed: int) -> np.ndarray:
    """A Gaussian kernel matrix over sorted random points on [0, 1)."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n_points))
    d = x[:, None] - x[None, :]
    return np.exp(-(d * d) / (2.0 * lengthscale * lengthscale))


def _ragged_clusters(n_points: int, min_c: int, max_c: int, seed: int) -> list[slice]:
    """Contiguous index blocks of varying size covering ``n_points``."""
    rng = np.random.default_rng(seed + 1)
    bounds = [0]
    while bounds[-1] < n_points:
        bounds.append(min(bounds[-1] + int(rng.integers(min_c, max_c + 1)), n_points))
    # A runt final cluster would fall below the QR panel; merge it back.
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < min_c:
        bounds.pop(-2)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class HmatrixResult:
    """Outcome of one block low-rank compression run."""

    n_points: int
    clusters: int
    tol: float
    #: (i, j, rank) per compressed (admissible) tile.
    ranks: list[tuple] = field(default_factory=list)
    dense_tiles: int = 0
    stored_entries: int = 0
    dense_entries: int = 0
    max_rel_error: float = 0.0
    potrf_failures: int = 0
    #: The serving tier's metrics snapshot (per-op breakdown included).
    serving: dict = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """stored / dense — below 1.0 means the compression paid off."""
        return self.stored_entries / self.dense_entries if self.dense_entries else 0.0

    @property
    def max_rank(self) -> int:
        return max((r for _, _, r in self.ranks), default=0)


def compress_kernel_matrix(
    server: BatchServer,
    n_points: int = 512,
    lengthscale: float = 0.12,
    tol: float = 1.0e-6,
    min_cluster: int = 24,
    max_cluster: int = 72,
    seed: int = 7,
    ridge: float = 1.0e-6,
) -> HmatrixResult:
    """Compress one kernel matrix through ``server``; returns the result.

    The three request waves (QR of the admissible tiles, SVD of their
    ``R`` factors, Cholesky of the regularized diagonal blocks) are
    submitted individually and pumped synchronously, so the server's
    windowing — not the application — decides the batch composition.
    """
    if tol <= 0:
        raise ArgumentError(1, f"tol must be positive, got {tol}")
    k = _kernel_matrix(n_points, lengthscale, seed)
    clusters = _ragged_clusters(n_points, min_cluster, max_cluster, seed)
    p = len(clusters)
    result = HmatrixResult(n_points=n_points, clusters=p, tol=tol,
                           dense_entries=n_points * n_points)

    def drain():
        while server.pump(force=True):
            pass

    # Wave 1: Cholesky of the regularized diagonal blocks (the solver's
    # per-cluster preconditioner) + QR of every admissible tile.
    diag_futs = []
    for ci in clusters:
        block = k[ci, ci].copy()
        block[np.diag_indices_from(block)] += ridge * block.shape[0]
        diag_futs.append(server.submit(block, op="potrf"))
    tiles = []  # (i, j, ci, cj, tile) for admissible pairs
    qr_futs = []
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            if abs(i - j) == 1:  # inadmissible: clusters touch
                result.dense_tiles += 1
                result.stored_entries += (
                    (clusters[i].stop - clusters[i].start)
                    * (clusters[j].stop - clusters[j].start)
                )
                continue
            if j < i:  # compress the upper triangle; mirror the lower
                continue
            tile = k[clusters[i], clusters[j]]
            m, n = tile.shape
            order = max(m, n)
            embedded = np.zeros((order, order))
            embedded[:m, :n] = tile
            tiles.append((i, j, m, n, tile))
            qr_futs.append(server.submit(embedded, op="geqrf"))
    drain()

    for fut in diag_futs:
        if not fut.result(timeout=60.0).ok:
            result.potrf_failures += 1
    result.stored_entries += sum(
        (c.stop - c.start) ** 2 for c in clusters
    )  # diagonal factors stay dense

    # Wave 2: SVD of each tile's R factor (same order, cacheable sizes).
    qr_packed = [fut.result(timeout=60.0) for fut in qr_futs]
    svd_futs = [
        server.submit(np.triu(resp.factor), op="gesvj") for resp in qr_packed
    ]
    drain()

    svds = [fut.result(timeout=60.0) for fut in svd_futs]
    # A = Q R, R = U S V^T  =>  A ~= (Q U_r) S_r V_r^T
    qus = _q_times_u(qr_packed, svds)
    for (i, j, m, n, tile), svd, qu in zip(tiles, svds, qus):
        sigma = svd.extras["singular_values"]
        vt = svd.extras["vt"]
        rank = int(np.count_nonzero(sigma > tol * max(sigma[0], 1e-300)))
        rank = max(1, min(rank, m, n))
        u = qu[:m, :rank]
        right = sigma[:rank, None] * vt[:rank, :n]
        rel = np.linalg.norm(tile - u @ right) / max(np.linalg.norm(tile), 1e-300)
        result.max_rel_error = max(result.max_rel_error, float(rel))
        result.ranks.append((i, j, rank))
        # Both triangles store the factors (the mirrored tile reuses
        # the transposed pair at the same rank).
        result.stored_entries += 2 * rank * (m + n)
    result.serving = server.metrics.snapshot()
    return result


def _q_times_u(qrs, svds) -> list[np.ndarray]:
    """``Q U`` of every tile from its QR and SVD responses: one stacked
    compact-WY product ``U - V (T (V^T U))`` per tile order."""
    by_order: dict[int, list[int]] = {}
    for t, qr in enumerate(qrs):
        by_order.setdefault(qr.factor.shape[0], []).append(t)
    out: list = [None] * len(qrs)
    for order, members in by_order.items():
        packed = np.stack([qrs[t].factor for t in members])
        t_wy = stacked_larft(packed, np.stack([qrs[t].extras["taus"] for t in members]))
        v = np.tril(packed, -1)
        v[:, np.arange(order), np.arange(order)] = 1.0
        u = np.stack([svds[t].factor for t in members])
        for t, qu in zip(members, u - v @ (t_wy @ (np.swapaxes(v, 1, 2) @ u))):
            out[t] = qu
    return out


# ----------------------------------------------------------------------
# mixed-operation serving comparison
# ----------------------------------------------------------------------
def _mixed_stream(requests: int, max_size: int, seed: int) -> list[tuple]:
    """A deterministic, imbalanced (op, matrix) stream.

    70% QR / 20% POTRF / 10% SVD — the tile-to-diagonal shape of the
    compression pipeline, exaggerated so op segregation visibly strands
    hardware.  Sizes sit in a tile-like band ``[2/3*max, max]`` (the
    windowing ratio), so both serving configurations batch equally
    tightly and the comparison isolates scheduling, not padding luck.
    Payloads are views of one zero block: the comparison runs on
    timing-only devices, where the cost model never reads values.
    """
    rng = np.random.default_rng(seed)
    ops = rng.choice(["geqrf", "potrf", "gesvj"], size=requests, p=[0.7, 0.2, 0.1])
    sizes = rng.integers(max(8, (2 * max_size) // 3), max_size + 1, size=requests)
    return list(zip(ops.tolist(), _bench_matrices(sizes)))


def _waste_pct(snapshots) -> float:
    useful = sum(s["batching"]["useful_flops"] for s in snapshots)
    padded = sum(s["batching"]["padded_flops"] for s in snapshots)
    return 100.0 * (1.0 - useful / padded) if padded else 0.0


def _run_shared(stream, device_count: int, max_batch: int) -> dict:
    """One cross-op server over a device group, run backlogged.

    The whole stream is submitted before the first dispatch — the
    paper's throughput regime, where a batch can always fill — then the
    queue is pumped dry.  Each dispatched batch is sharded across the
    group, so the heavy op's large batches actually use all devices.
    """
    group = DeviceGroup.simulated(device_count, execute_numerics=False)
    server = BatchServer(
        devices=group, policy="cross-op", max_batch=max_batch,
        queue_limit=4 * len(stream),
    )
    futures = [server.submit(matrix, op=op) for op, matrix in stream]
    while server.pump(force=True):  # pump dispatches one batch at a time
        pass
    server.shutdown(drain=True)
    for fut in futures:
        fut.result(timeout=60.0)
    snap = server.metrics.snapshot()
    busy = snap["throughput"]["sim_busy_s"]
    return {
        "snapshot": snap,
        "makespan_sim_s": busy,
        "matrices_per_sim_s": (len(stream) / busy) if busy else 0.0,
        "waste_pct": _waste_pct([snap]),
    }


def _run_segregated(stream, max_batch: int) -> dict:
    """One single-device server per op, same backlogged stream by op.

    The three devices run concurrently in simulated time, so the
    configuration's makespan is the *busiest* server's simulated span —
    the light-op devices finish early and idle.  Identical max_batch
    and window ratio mean each op forms the same batches it does on the
    shared server; only the hardware assignment differs.
    """
    servers = {
        op: BatchServer(
            device=Device(execute_numerics=False),
            policy="greedy-window",
            max_batch=max_batch,
            queue_limit=4 * len(stream),
        )
        for op in ("geqrf", "potrf", "gesvj")
    }
    futures = [servers[op].submit(matrix, op=op) for op, matrix in stream]
    for server in servers.values():
        while server.pump(force=True):
            pass
        server.shutdown(drain=True)
    for fut in futures:
        fut.result(timeout=60.0)
    snaps = {op: s.metrics.snapshot() for op, s in servers.items()}
    makespan = max(s["throughput"]["sim_busy_s"] for s in snaps.values())
    return {
        "snapshots": snaps,
        "makespan_sim_s": makespan,
        "matrices_per_sim_s": (len(stream) / makespan) if makespan else 0.0,
        "waste_pct": _waste_pct(snaps.values()),
    }


# ----------------------------------------------------------------------
# the bench harness
# ----------------------------------------------------------------------
def run_hmatrix_bench(
    n_points: int = 1024,
    tol: float = 1.0e-6,
    requests: int = 5760,
    max_size: int = 96,
    device_count: int = 3,
    max_batch: int = 288,
    seed: int = 7,
    smoke: bool = False,
) -> dict:
    """The ``hmatrix-bench`` report: compression + serving comparison."""
    if smoke:
        n_points, requests = 384, 2880

    server = BatchServer(policy="cross-op", max_batch=max_batch)
    compression = compress_kernel_matrix(server, n_points=n_points, tol=tol, seed=seed)
    server.shutdown(drain=True)

    stream = _mixed_stream(requests, max_size, seed)
    shared = _run_shared(stream, device_count, max_batch)
    segregated = _run_segregated(stream, max_batch)

    report = {
        "config": {
            "n_points": int(n_points),
            "tol": float(tol),
            "requests": int(requests),
            "max_size": int(max_size),
            "device_count": int(device_count),
            "max_batch": int(max_batch),
            "seed": int(seed),
            "smoke": bool(smoke),
        },
        "compression": {
            "clusters": compression.clusters,
            "tiles_compressed": len(compression.ranks),
            "tiles_dense": compression.dense_tiles,
            "max_rank": compression.max_rank,
            "compression_ratio": compression.compression_ratio,
            "max_rel_error": compression.max_rel_error,
            "potrf_failures": compression.potrf_failures,
            "serving_ops": compression.serving.get("ops", {}),
        },
        "mixed_serving": {
            "op_mix": {"geqrf": 0.7, "potrf": 0.2, "gesvj": 0.1},
            "shared_cross_op": {
                k: v for k, v in shared.items() if k != "snapshot"
            },
            "segregated": {
                k: v for k, v in segregated.items() if k != "snapshots"
            },
            "shared_ops": shared["snapshot"].get("ops", {}),
            "comparison": {
                "throughput_speedup": (
                    shared["matrices_per_sim_s"] / segregated["matrices_per_sim_s"]
                    if segregated["matrices_per_sim_s"]
                    else 0.0
                ),
                "waste_pct_shared": shared["waste_pct"],
                "waste_pct_segregated": segregated["waste_pct"],
            },
        },
    }
    report["acceptance"] = {"failures": check_hmatrix_acceptance(report)}
    return report


def check_hmatrix_acceptance(report: dict) -> list[str]:
    """The embedded acceptance gate the ``mixedop-smoke`` CI job runs."""
    failures: list[str] = []
    comp = report["compression"]
    tol = report["config"]["tol"]
    if comp["potrf_failures"]:
        failures.append(
            f"{comp['potrf_failures']} diagonal Cholesky blocks failed (expected 0)"
        )
    if comp["max_rel_error"] > 50 * tol:
        failures.append(
            f"tile reconstruction error {comp['max_rel_error']:.2e} "
            f"exceeds 50*tol={50 * tol:.2e}"
        )
    if not comp["tiles_compressed"]:
        failures.append("no admissible tiles were compressed")
    if comp["compression_ratio"] >= 0.8:
        failures.append(
            f"compression ratio {comp['compression_ratio']:.3f} >= 0.8 "
            "(low-rank structure not exploited)"
        )
    for op in ("potrf", "geqrf", "gesvj"):
        if op not in comp["serving_ops"]:
            failures.append(f"operation {op!r} missing from the serving per-op metrics")

    mix = report["mixed_serving"]["comparison"]
    if mix["throughput_speedup"] <= 1.0:
        failures.append(
            f"cross-op shared serving speedup {mix['throughput_speedup']:.2f}x "
            "<= 1.0 over op-segregated serving"
        )
    if mix["waste_pct_shared"] > mix["waste_pct_segregated"] + 0.5:
        failures.append(
            f"cross-op padded waste {mix['waste_pct_shared']:.2f}% exceeds "
            f"segregated {mix['waste_pct_segregated']:.2f}% by more than 0.5pp"
        )
    return failures
