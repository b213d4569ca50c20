"""Vbatched Householder QR factorization (paper §V), plan/execute split.

The driver is a *pure planner*: :func:`plan_geqrf` emits a
:class:`~repro.core.plan.LaunchPlan` and never moves the simulated
clock.  Two approaches, mirroring the POTRF drivers:

* **separated** — the blocked compact-WY sweep per ``NB`` panel: the
  panel kernel computes the reflectors and the ``T`` factor, and the
  block-reflector application to the trailing columns is two vbatched
  gemm launches (``W = V^H C`` and ``C -= V (T^H W)``), the second of
  which carries the exact per-matrix update numerics.
* **fused** — one whole-matrix ``geqr2`` launch per implicit-sorting
  size window (the panel *is* the matrix, so there is no trailing
  update); right of the crossover the long serial column chain loses to
  the blocked sweep.

:func:`geqrf_vbatched` is the eager-shaped wrapper: it routes through
the generic operation driver, so ``plan_cache=``, ``optimize=`` and
``devices=`` (DeviceGroup/HeteroGroup sharding) all apply.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import VBatch
from ..core.plan import LaunchPlan, PlanBuilder
from ..core.sorting import partition_windows, sorted_order
from ..errors import ArgumentError
from ..kernels.aux import StepSizesKernel
from ..kernels.gemm import GemmTask, VbatchedGemmKernel
from ..types import precision_info
from .kernels import LarfbUpdateGemmKernel, OpRunStats, PanelGeqr2Kernel

__all__ = ["geqrf_vbatched", "plan_geqrf"]

_WINDOW_MIN_COUNT = 256


def plan_geqrf(
    device,
    batch: VBatch,
    max_n: int,
    *,
    panel_nb: int = 64,
    approach: str = "separated",
    sorting: bool = False,
) -> LaunchPlan:
    """Emit the QR launch DAG (no device time passes).

    The plan's ``meta["outputs"]["taus"]`` array is host-mirrored
    storage the panel kernels fill during execution; a cached plan
    re-fills the same array on re-execution.
    """
    if panel_nb <= 0:
        raise ArgumentError(4, f"panel_nb must be positive, got {panel_nb}")
    if max_n < batch.max_size_host:
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix")
    if approach not in ("fused", "separated"):
        raise ArgumentError(1, f"bad geqrf approach {approach!r}")

    k = batch.batch_count
    sizes = batch.sizes_host
    precision = batch.precision
    info = precision_info(precision)
    taus = np.zeros((k, max_n), dtype=info.dtype)
    stats = OpRunStats()
    pb = PlanBuilder(device)
    try:
        taus_dev = pb.workspace((k, max_n), info.dtype)  # noqa: F841 — residency
        remaining_dev = pb.workspace((k,), np.int64)
        panel_dev = pb.workspace((k,), np.int64)
        stats_dev = pb.workspace((2,), np.int64)

        if approach == "fused":
            # Whole-matrix panels: one geqr2 launch per size window.
            order = sorted_order(sizes) if sorting else None
            stats.steps = 1
            pb.aux(StepSizesKernel(sizes, 0, max_n, remaining_dev, panel_dev, stats_dev))
            jbs = sizes.astype(np.int64)
            if order is None:
                with pb.tagged("panel"):
                    pb.launch(PanelGeqr2Kernel(sizes, precision, 0, jbs, taus, {}, max_n))
            else:
                windows = partition_windows(sizes, order, 0, panel_nb, _WINDOW_MIN_COUNT)
                stats.window_launches_max = len(windows)
                for win in windows:
                    with pb.tagged("panel"):
                        pb.launch(
                            PanelGeqr2Kernel(
                                sizes, precision, 0, jbs, taus, {}, win.max_m,
                                indices=win.indices,
                            )
                        )
        else:
            order = sorted_order(sizes) if sorting else np.arange(k, dtype=np.int64)
            for s in range(-(-max_n // panel_nb)):
                offset = s * panel_nb
                pb.aux(
                    StepSizesKernel(sizes, offset, panel_nb, remaining_dev, panel_dev, stats_dev)
                )
                max_rows = max_n - offset
                stats.steps += 1
                remaining = np.maximum(0, sizes - offset)
                jbs = np.minimum(remaining, panel_nb)
                t_store: dict[int, np.ndarray] = {}

                with pb.tagged("panel"):
                    pb.launch(
                        PanelGeqr2Kernel(sizes, precision, offset, jbs, taus, t_store, max_rows)
                    )

                # Block-reflector application: modeled as the two dominant
                # gemm launches of larfb (W = V^H C, then C -= V (T^H W));
                # the second launch carries the exact compact-WY update.
                gemm1, gemm2 = [], []
                for i in order:
                    i = int(i)
                    jb = int(jbs[i])
                    m = int(remaining[i])
                    ncols = m - jb
                    if jb == 0 or ncols <= 0:
                        gemm1.append(GemmTask(0, 0, 0))
                        gemm2.append(GemmTask(0, 0, 0))
                        continue
                    gemm1.append(GemmTask(m=jb, n=ncols, k=m))
                    gemm2.append(GemmTask(m=m, n=ncols, k=jb))
                if any(t.m > 0 for t in gemm1):
                    with pb.tagged("gemm"):
                        pb.launch(VbatchedGemmKernel(gemm1, precision, label="larfb_w"))
                        pb.launch(
                            LarfbUpdateGemmKernel(
                                gemm2, precision, offset, jbs, t_store, taus, label="larfb_c"
                            )
                        )
    except BaseException:
        pb.abandon()
        raise
    return pb.build(
        run_stats=stats,
        meta={
            "op": "geqrf",
            "planner": approach,
            "panel_nb": panel_nb,
            "max_n": max_n,
            "outputs": {"taus": taus},
        },
    )


def geqrf_vbatched(
    device,
    batch: VBatch,
    max_n: int | None = None,
    panel_nb: int | None = None,
    *,
    options=None,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
):
    """QR-factorize every matrix in the batch, in place (LAPACK storage).

    ``R`` lands in each upper triangle, the Householder vectors below
    the diagonal; the :class:`~repro.ops.driver.OpResult` carries the
    per-matrix ``tau`` scalars in ``outputs["taus"]``.  ``max_n``
    defaults to a device-side reduction.  ``options`` is an
    :class:`~repro.ops.options.OpOptions`; the scaling hooks
    (``devices=``, ``plan_cache=``, ``optimize=``) match the POTRF
    driver.
    """
    from ..ops.driver import run_op_vbatched
    from ..ops.options import OpOptions

    if options is None:
        options = OpOptions(panel_nb=panel_nb)
    return run_op_vbatched(
        device, batch, max_n, "geqrf", options,
        devices=devices, plan_cache=plan_cache, optimize=optimize,
    )
