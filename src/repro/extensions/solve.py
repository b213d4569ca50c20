"""Vbatched triangular solve after POTRF (``potrs``).

The application-facing other half of the factorization: given the
batch's Cholesky factors and per-matrix right-hand sides, run the fused
forward+backward substitution kernel — one block per matrix, RHS in
shared memory — and return the solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import flops as _flops
from ..core.batch import VBatch
from ..errors import ArgumentError
from .kernels import FusedGetrsKernel, FusedPotrsKernel

__all__ = ["PotrsResult", "potrs_vbatched", "getrs_vbatched"]


@dataclass
class PotrsResult:
    """Outcome of one vbatched solve."""

    elapsed: float
    total_flops: float

    @property
    def gflops(self) -> float:
        return _flops.gflops(self.total_flops, self.elapsed)


def potrs_vbatched(device, batch: VBatch, rhs: list[np.ndarray | None]) -> PotrsResult:
    """Solve ``A_i x = b_i`` using factors already stored in ``batch``.

    ``rhs[i]`` is overwritten with the solution (``None`` skips matrix
    ``i``).  Shapes must be ``(n_i,)`` or ``(n_i, nrhs)``.
    """
    if len(rhs) != batch.batch_count:
        raise ArgumentError(3, f"need {batch.batch_count} right-hand sides, got {len(rhs)}")
    total = 0.0
    max_rows = 1
    for i, b in enumerate(rhs):
        if b is None:
            continue
        n = int(batch.sizes_host[i])
        if b.shape[0] != n:
            raise ArgumentError(3, f"rhs[{i}] has {b.shape[0]} rows, matrix has {n}")
        nrhs = b.shape[1] if b.ndim == 2 else 1
        total += 2.0 * _flops.trsm_flops(n, nrhs, side="left", precision=batch.precision)
        max_rows = max(max_rows, n)

    t0 = device.synchronize()
    kernel = FusedPotrsKernel(batch.sizes_host, batch.precision, list(rhs), max_rows)
    device.launch(kernel, operands=(batch,))
    elapsed = device.synchronize() - t0
    return PotrsResult(elapsed=elapsed, total_flops=total)


def getrs_vbatched(
    device, batch: VBatch, ipivs: np.ndarray, rhs: list[np.ndarray | None]
) -> PotrsResult:
    """Solve ``A_i x = b_i`` using LU factors and pivots from getrf.

    ``ipivs`` is the pivot table returned by
    :func:`~repro.extensions.getrf.getrf_vbatched`; ``rhs[i]`` is
    overwritten with the solution (``None`` skips matrix ``i``).
    """
    if len(rhs) != batch.batch_count:
        raise ArgumentError(4, f"need {batch.batch_count} right-hand sides, got {len(rhs)}")
    if ipivs.shape[0] != batch.batch_count:
        raise ArgumentError(3, f"ipivs has {ipivs.shape[0]} rows, batch has {batch.batch_count}")
    total = 0.0
    max_rows = 1
    for i, b in enumerate(rhs):
        if b is None:
            continue
        n = int(batch.sizes_host[i])
        if b.shape[0] != n:
            raise ArgumentError(4, f"rhs[{i}] has {b.shape[0]} rows, matrix has {n}")
        nrhs = b.shape[1] if b.ndim == 2 else 1
        total += 2.0 * _flops.trsm_flops(n, nrhs, side="left", precision=batch.precision)
        max_rows = max(max_rows, n)

    t0 = device.synchronize()
    kernel = FusedGetrsKernel(batch.sizes_host, batch.precision, list(rhs), ipivs, max_rows)
    device.launch(kernel, operands=(batch,))
    elapsed = device.synchronize() - t0
    return PotrsResult(elapsed=elapsed, total_flops=total)
