"""Vbatched one-sided Jacobi SVD (gesvj), plan/execute split.

Hestenes' one-sided Jacobi is the batched-SVD method of choice on
throughput hardware (and the kernel behind hierarchical-matrix
compression pipelines): each matrix needs only column dot products and
plane rotations, so one thread block per matrix sweeps to convergence
without cross-block communication.

The planner fixes the sweep budget at plan time — a static DAG whose
timing depends only on the size vector (hence cacheable).  Each sweep
is a convergence-reduce aux launch plus one rotation launch (per size
window under implicit sorting); the functional plane skips matrices
whose columns already converged, which never moves the simulated
clock.  A finalize launch computes the singular values, normalizes
``U`` in place and emits ``V^T``.

Real precisions only (``s``/``d``): complex one-sided rotations are out
of scope, matching the host reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import flops as _flops
from ..core.batch import VBatch
from ..core.plan import LaunchPlan, PlanBuilder
from ..core.sorting import partition_windows, sorted_order
from ..errors import ArgumentError
from ..types import precision_info
from .kernels import JacobiSweepKernel, OpRunStats, SvdConvergenceKernel, SvdFinalizeKernel

__all__ = ["SvdState", "gesvj_vbatched", "plan_gesvj"]

_WINDOW_MIN_COUNT = 256


@dataclass
class SvdState:
    """Host-side working state shared by the SVD kernels of one plan.

    ``v_store`` holds each matrix's accumulated rotation product ``V``;
    after the finalize launch ``vt_store[i]`` is the sorted ``V^T`` and
    ``sigma`` the descending singular values.  Owned by the plan like
    the QR ``taus`` array: a cached plan re-fills the same storage.
    """

    sigma: np.ndarray
    v_store: dict = field(default_factory=dict)
    vt_store: dict = field(default_factory=dict)
    converged: np.ndarray = None
    sweeps_done: np.ndarray = None
    tol: float = 1.0e-10

    def reset(self, sizes: np.ndarray) -> None:
        """Re-arm for a (re-)execution: fresh ``V`` accumulators for
        matrices of order ``sizes``."""
        self.sigma[...] = 0.0
        self.vt_store.clear()
        self.converged[...] = False
        self.sweeps_done[...] = 0
        for i, n in enumerate(sizes.tolist()):
            self.v_store[i] = np.eye(n, dtype=self.sigma.dtype)


class _SvdResetKernel(SvdConvergenceKernel):
    """The sweep loop's prologue: zero flags, identity ``V`` accumulators.

    Costed like the convergence reduce (metadata-sized traffic); its
    functional plane re-arms the plan's host-side state so a cached
    plan's re-execution starts from scratch.
    """

    def __init__(self, sizes: np.ndarray, precision, state: SvdState):
        super().__init__(len(sizes), precision)
        self.sizes = sizes
        self.state = state
        self.name = "svd_state_reset"

    def run_numerics(self, operands) -> None:
        self.state.reset(self.sizes)


def plan_gesvj(
    device,
    batch: VBatch,
    max_n: int,
    *,
    sweeps: int | None = None,
    tol: float = 1.0e-10,
    sorting: bool = False,
    panel_nb: int = 64,
) -> LaunchPlan:
    """Emit the Jacobi-SVD launch DAG (no device time passes).

    ``sweeps`` fixes the rotation-sweep budget (default: the modeled
    :func:`repro.flops.default_svd_sweeps` of ``max_n``); ``sorting``
    splits each sweep into implicit-sorting size windows of width
    ``panel_nb``.
    """
    if max_n < batch.max_size_host:
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix")
    if batch.precision.value not in ("s", "d"):
        raise ArgumentError(2, f"gesvj supports real precisions only, got {batch.precision.value}")
    if sweeps is None:
        sweeps = _flops.default_svd_sweeps(max_n)
    if sweeps <= 0:
        raise ArgumentError(5, f"sweeps must be positive, got {sweeps}")

    k = batch.batch_count
    sizes = batch.sizes_host
    precision = batch.precision
    info = precision_info(precision)
    state = SvdState(
        sigma=np.zeros((k, max_n), dtype=info.dtype),
        converged=np.zeros(k, dtype=bool),
        sweeps_done=np.zeros(k, dtype=np.int64),
        tol=tol,
    )
    state.reset(sizes)
    stats = OpRunStats(steps=sweeps, sweeps=sweeps)
    order = sorted_order(sizes) if sorting else None
    pb = PlanBuilder(device)
    try:
        flags_dev = pb.workspace((k,), np.int64)  # noqa: F841 — residency
        sigma_dev = pb.workspace((k, max_n), info.dtype)  # noqa: F841 — residency

        pb.aux(_SvdResetKernel(sizes, precision, state))
        windows = (
            partition_windows(sizes, order, 0, panel_nb, _WINDOW_MIN_COUNT)
            if order is not None
            else None
        )
        if windows is not None:
            stats.window_launches_max = len(windows)
        for sweep in range(sweeps):
            pb.aux(SvdConvergenceKernel(k, precision))
            if windows is None:
                with pb.tagged("sweep"):
                    pb.launch(JacobiSweepKernel(sizes, precision, sweep, state, max_n))
            else:
                for win in windows:
                    with pb.tagged("sweep"):
                        pb.launch(
                            JacobiSweepKernel(
                                sizes, precision, sweep, state, win.max_m, indices=win.indices
                            )
                        )
        with pb.tagged("panel"):
            pb.launch(SvdFinalizeKernel(sizes, precision, state, max_n))
    except BaseException:
        pb.abandon()
        raise
    return pb.build(
        run_stats=stats,
        meta={
            "op": "gesvj",
            "planner": "jacobi",
            "sweeps": sweeps,
            "max_n": max_n,
            "outputs": {
                "singular_values": state.sigma,
                "vt": state.vt_store,
                "sweeps_done": state.sweeps_done,
            },
        },
    )


def gesvj_vbatched(
    device,
    batch: VBatch,
    max_n: int | None = None,
    *,
    options=None,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
):
    """SVD every matrix in the batch: ``A_i = U_i diag(s_i) V_i^T``.

    ``U`` replaces each matrix in place; the
    :class:`~repro.ops.driver.OpResult` carries the descending
    ``outputs["singular_values"]``, per-matrix ``outputs["vt"]`` and
    each matrix's ``outputs["sweeps_done"]``.  Scaling hooks are the op
    driver's (:func:`~repro.ops.driver.run_op_vbatched`).
    """
    from ..ops.driver import run_op_vbatched

    return run_op_vbatched(
        device, batch, max_n, "gesvj", options,
        devices=devices, plan_cache=plan_cache, optimize=optimize,
    )
