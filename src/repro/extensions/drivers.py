"""LAPACK-style driver routines: factor + solve in one call.

``posv`` (Cholesky solve) and ``gesv`` (LU solve) combine the vbatched
factorizations with their fused substitution kernels — the convenience
entry points an application calls when it does not need to keep the
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batch import VBatch
from ..core.driver import PotrfOptions
from ..core.interface import potrf_vbatched_max
from ..errors import ArgumentError, BatchNumericalError
from ..kernels.aux import compute_max_size
from .getrf import getrf_vbatched
from .solve import getrs_vbatched, potrs_vbatched

__all__ = ["SolveResult", "posv_vbatched", "gesv_vbatched"]


@dataclass
class SolveResult:
    """Outcome of a combined factor+solve driver."""

    factor_elapsed: float
    solve_elapsed: float
    total_flops: float
    infos: np.ndarray

    @property
    def elapsed(self) -> float:
        return self.factor_elapsed + self.solve_elapsed

    @property
    def failed_count(self) -> int:
        return int(np.count_nonzero(self.infos))


def _check_rhs(batch: VBatch, rhs) -> None:
    if len(rhs) != batch.batch_count:
        raise ArgumentError(3, f"need {batch.batch_count} right-hand sides, got {len(rhs)}")


def posv_vbatched(
    device,
    batch: VBatch,
    rhs: list[np.ndarray | None],
    options: PotrfOptions | None = None,
    *,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
) -> SolveResult:
    """Solve ``A_i x = b_i`` for SPD batches: POTRF then POTRS.

    Matrices are overwritten with their factors, ``rhs`` with the
    solutions.  Raises :class:`BatchNumericalError` if any matrix is
    not positive definite (solutions would be meaningless).  The factor
    step accepts the same ``devices``/``plan_cache``/``optimize``
    scaling hooks as :func:`~repro.core.interface.potrf_vbatched`; the
    substitution runs on the factors gathered back on ``device``.
    """
    _check_rhs(batch, rhs)
    opts = options or PotrfOptions()
    max_n = compute_max_size(device, batch)
    fact = potrf_vbatched_max(
        device,
        batch,
        max_n,
        opts,
        devices=devices,
        plan_cache=plan_cache,
        optimize=optimize,
    )
    if fact.failed_count and device.execute_numerics:
        failing = {int(i): int(v) for i, v in enumerate(fact.infos) if v != 0}
        raise BatchNumericalError(failing, f"posv_vbatched[{batch.precision.value}]")
    solve = potrs_vbatched(device, batch, rhs)
    return SolveResult(
        factor_elapsed=fact.elapsed,
        solve_elapsed=solve.elapsed,
        total_flops=fact.total_flops + solve.total_flops,
        infos=fact.infos,
    )


def gesv_vbatched(
    device,
    batch: VBatch,
    rhs: list[np.ndarray | None],
    panel_nb: int = 64,
) -> SolveResult:
    """Solve general ``A_i x = b_i`` batches: GETRF then GETRS."""
    _check_rhs(batch, rhs)
    fact = getrf_vbatched(device, batch, panel_nb=panel_nb)
    if fact.failed_count and device.execute_numerics:
        failing = {int(i): int(v) for i, v in enumerate(fact.infos) if v != 0}
        raise BatchNumericalError(failing, f"gesv_vbatched[{batch.precision.value}]")
    solve = getrs_vbatched(device, batch, fact.ipivs, rhs)
    return SolveResult(
        factor_elapsed=fact.elapsed,
        solve_elapsed=solve.elapsed,
        total_flops=fact.total_flops + solve.total_flops,
        infos=fact.infos,
    )
