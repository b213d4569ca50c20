"""LAPACK-style driver routines: factor + solve in one call.

``posv`` (Cholesky solve) and ``gesv`` (LU solve) combine the vbatched
factorizations with their fused substitution kernels — the convenience
entry points an application calls when it does not need to keep the
factors.  Both are one body: factor through the op driver under the
registry alias's ``base`` op, then substitute.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.batch import VBatch
from ..errors import ArgumentError, BatchNumericalError
from ..ops.driver import OpResult, run_op_vbatched
from ..ops.options import OpOptions
from ..ops.registry import get_op
from .solve import getrs_vbatched, potrs_vbatched

__all__ = ["posv_vbatched", "gesv_vbatched"]


def _factor_solve(
    alias: str,
    device,
    batch: VBatch,
    rhs: list[np.ndarray | None],
    options: OpOptions | None,
    devices,
    plan_cache,
    optimize: str | None,
) -> OpResult:
    if len(rhs) != batch.batch_count:
        raise ArgumentError(3, f"need {batch.batch_count} right-hand sides, got {len(rhs)}")
    fact = run_op_vbatched(
        device, batch, None, get_op(alias).base, options,
        devices=devices, plan_cache=plan_cache, optimize=optimize,
    )
    if fact.failed_count and device.execute_numerics:
        failing = {int(i): int(v) for i, v in enumerate(fact.infos) if v != 0}
        raise BatchNumericalError(failing, f"{alias}_vbatched[{batch.precision.value}]")
    if alias == "posv":
        solve = potrs_vbatched(device, batch, rhs)
    else:
        solve = getrs_vbatched(device, batch, fact.outputs["ipivs"], rhs)
    return replace(
        fact,
        op=alias,
        elapsed=fact.elapsed + solve.elapsed,
        total_flops=fact.total_flops + solve.total_flops,
        meta={**fact.meta, "factor_elapsed": fact.elapsed, "solve_elapsed": solve.elapsed},
    )


def posv_vbatched(
    device,
    batch: VBatch,
    rhs: list[np.ndarray | None],
    options: OpOptions | None = None,
    *,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
) -> OpResult:
    """Solve ``A_i x = b_i`` for SPD batches: POTRF then POTRS.

    Matrices are overwritten with their factors, ``rhs`` with the
    solutions.  Raises :class:`BatchNumericalError` if any matrix is
    not positive definite (solutions would be meaningless).  The factor
    step accepts the same ``devices``/``plan_cache``/``optimize``
    scaling hooks as :func:`~repro.core.interface.potrf_vbatched`; the
    substitution runs on the factors gathered back on ``device``.
    """
    return _factor_solve("posv", device, batch, rhs, options, devices, plan_cache, optimize)


def gesv_vbatched(
    device,
    batch: VBatch,
    rhs: list[np.ndarray | None],
    options: OpOptions | None = None,
    *,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
) -> OpResult:
    """Solve general ``A_i x = b_i`` batches: GETRF then GETRS (the
    same hooks and failure contract as :func:`posv_vbatched`)."""
    return _factor_solve("gesv", device, batch, rhs, options, devices, plan_cache, optimize)
