"""Vbatched *partial* Cholesky: eliminate each matrix's leading columns.

The multifrontal method factorizes a frontal matrix only through its
separator block and leaves a Schur complement for the parent front —
i.e. a batched *partial* factorization with a different elimination
count ``k_i`` per matrix.  This is exactly the "foundation" use the
paper promises sparse direct solvers (§I, §V): the routine below is
assembled entirely from the existing vbatched kernels — the fused panel
kernel for the pivot blocks, the trtri+gemm ``trsm``, and the
decision-layer ``syrk`` for the Schur update.

After the call, matrix ``i`` holds ``L11`` (lower, in its leading
``k_i x k_i`` block), ``L21 = A21 L11^{-H}`` below it, and the Schur
complement ``A22 - L21 L21^H`` in the trailing block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import flops as _flops
from ..device.kernel import BATCH
from ..errors import ArgumentError
from ..kernels.potf2 import PanelPotf2StepKernel
from ..kernels.syrk import SyrkTask, VbatchedSyrkKernel
from ..kernels.trsm import TrsmPanelItem, vbatched_trsm_panel
from .batch import VBatch
from .fused import default_fused_nb
from .plan import LaunchPlan, PlanBuilder

__all__ = ["PartialPotrfResult", "partial_potrf_vbatched", "plan_partial_potrf"]


@dataclass
class PartialPotrfResult:
    """Outcome of one vbatched partial factorization."""

    elapsed: float
    total_flops: float
    infos: np.ndarray
    launch_stats: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return _flops.gflops(self.total_flops, self.elapsed)

    @property
    def failed_count(self) -> int:
        return int(np.count_nonzero(self.infos))


def _partial_flops(n: int, k: int, precision) -> float:
    """Flops of eliminating the leading ``k`` columns of an ``n x n`` SPD
    matrix: full potrf minus the potrf of the untouched trailing part."""
    return _flops.potrf_flops(n, precision) - _flops.potrf_flops(n - k, precision)


def plan_partial_potrf(
    device,
    batch: VBatch,
    k_cols: np.ndarray,
    inner_nb: int | None = None,
    ib: int = 32,
) -> LaunchPlan:
    """Plan the partial elimination (pivot potf2, trsm sweep, Schur syrk)."""
    k_cols = np.asarray(k_cols, dtype=np.int64)
    if k_cols.shape != (batch.batch_count,):
        raise ArgumentError(3, f"k_cols must have shape ({batch.batch_count},)")
    if np.any(k_cols < 0) or np.any(k_cols > batch.sizes_host):
        raise ArgumentError(3, "each k_i must satisfy 0 <= k_i <= n_i")

    max_k = int(k_cols.max(initial=0))
    stats = {"potf2": 0, "trsm": 0, "syrk": 0}
    sizes = batch.sizes_host
    precision = batch.precision
    pb = PlanBuilder(device)
    if max_k == 0:
        return pb.build(run_stats=stats, meta={"planner": "partial", "max_k": 0})

    try:
        nb = inner_nb or default_fused_nb(max_k, precision)

        # 1) Pivot blocks: the fused panel kernel sweeps each matrix's
        #    leading k_i x k_i block (tile-local history == global history
        #    at offset 0).
        for t in range(-(-max_k // nb)):
            pb.launch(
                PanelPotf2StepKernel(precision, 0, t, nb, k_cols, max_k, etm="aggressive"),
                tag="potf2",
            )
            stats["potf2"] += 1

        # 2) L21 := A21 L11^{-H} for the rows below each pivot block.
        pb.operand_workspace((len(sizes), max_k, max_k), batch.dtype)
        items = []
        for n, k in zip(sizes.tolist(), k_cols.tolist()):
            m_below = n - k
            items.append(TrsmPanelItem(m_below, k) if k and m_below > 0 else TrsmPanelItem(0, 0))
        if any(it.m > 0 for it in items):
            with pb.tagged("trsm"):
                stats["trsm"] = vbatched_trsm_panel(pb, items, precision, ib)

        # 3) Schur complement: A22 -= L21 L21^H (decision-layer syrk).
        tasks = []
        for i, (n, k) in enumerate(zip(sizes.tolist(), k_cols.tolist())):
            if k == 0 or n - k <= 0:
                tasks.append(SyrkTask(0, 0))
                continue
            trail = slice(k, None)
            tasks.append(
                SyrkTask(n=n - k, k=k, a=(BATCH, i, trail, slice(0, k)), c=(BATCH, i, trail, trail))
            )
        if any(t.n > 0 for t in tasks):
            schur = VbatchedSyrkKernel(tasks, precision)
            schur.matrix_indices = tuple(range(len(tasks)))
            pb.launch(schur, tag="syrk")
            stats["syrk"] = 1
    except BaseException:
        pb.abandon()
        raise
    return pb.build(run_stats=stats, meta={"planner": "partial", "max_k": max_k})


def partial_potrf_vbatched(
    device,
    batch: VBatch,
    k_cols: np.ndarray,
    inner_nb: int | None = None,
    ib: int = 32,
) -> PartialPotrfResult:
    """Eliminate the leading ``k_cols[i]`` columns of every matrix.

    ``k_cols`` is per-matrix (``0 <= k_i <= n_i``); ``k_i = n_i`` is a
    full factorization.  Numerical failure of a pivot block is reported
    through the batch's info array, LAPACK-style.
    """
    from ..device.executor import PlanExecutor

    plan = plan_partial_potrf(device, batch, k_cols, inner_nb, ib)
    k_cols = np.asarray(k_cols, dtype=np.int64)
    stats = plan.run_stats
    try:
        t0 = device.synchronize()
        if len(plan) == 0:
            return PartialPotrfResult(0.0, 0.0, np.zeros(batch.batch_count, np.int64), stats)
        PlanExecutor(device).execute(plan, batch)
        elapsed = device.synchronize() - t0
    finally:
        plan.close()
    if device.execute_numerics:
        infos = batch.download_infos()
    else:
        infos = np.zeros(batch.batch_count, np.int64)
    total = float(
        sum(
            _partial_flops(int(n), int(k), batch.precision)
            for n, k in zip(batch.sizes_host, k_cols)
        )
    )
    return PartialPotrfResult(elapsed, total, infos, stats)
