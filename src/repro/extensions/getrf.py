"""Vbatched LU factorization with partial pivoting (paper §V), planned.

The driver is a *pure planner*: :func:`plan_getrf` emits a
:class:`~repro.core.plan.LaunchPlan`.  Two approaches:

* **separated** — the right-looking blocked sweep per ``NB`` panel:
  pivoted panel factorization, row interchanges, ``U12`` solve, and a
  trailing update that reuses
  :class:`~repro.kernels.gemm.VbatchedGemmKernel` "out of the box"
  (its tasks name their operand windows).
* **fused** — one whole-matrix ``getf2`` launch per implicit-sorting
  size window: with the panel spanning every column there is nothing
  left to swap, solve or update.

:func:`getrf_vbatched` is the eager-shaped wrapper routed through the
generic operation driver (``plan_cache=``, ``optimize=``, ``devices=``
all apply).
"""

from __future__ import annotations

import numpy as np

from ..core.batch import VBatch
from ..core.plan import LaunchPlan, PlanBuilder
from ..core.sorting import partition_windows, sorted_order
from ..device.kernel import BATCH
from ..errors import ArgumentError
from ..kernels.aux import StepSizesKernel
from ..kernels.gemm import GemmTask, VbatchedGemmKernel
from .kernels import LeftTrsmKernel, OpRunStats, PanelGetf2Kernel, RowSwapKernel

__all__ = ["getrf_vbatched", "plan_getrf"]

_WINDOW_MIN_COUNT = 256


def plan_getrf(
    device,
    batch: VBatch,
    max_n: int,
    *,
    panel_nb: int = 64,
    approach: str = "separated",
    sorting: bool = False,
) -> LaunchPlan:
    """Emit the LU launch DAG (no device time passes).

    ``meta["outputs"]["ipivs"]`` is the host-mirrored pivot table the
    panel kernels fill during execution (global 1-based rows).
    """
    if panel_nb <= 0:
        raise ArgumentError(4, f"panel_nb must be positive, got {panel_nb}")
    if max_n < batch.max_size_host:
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix")
    if approach not in ("fused", "separated"):
        raise ArgumentError(1, f"bad getrf approach {approach!r}")

    k = batch.batch_count
    sizes = batch.sizes_host
    precision = batch.precision
    ipivs = np.zeros((k, max_n), dtype=np.int64)
    stats = OpRunStats()
    pb = PlanBuilder(device)
    try:
        ipivs_dev = pb.workspace((k, max_n), np.int64)  # noqa: F841 — residency
        remaining_dev = pb.workspace((k,), np.int64)
        panel_dev = pb.workspace((k,), np.int64)
        stats_dev = pb.workspace((2,), np.int64)

        if approach == "fused":
            order = sorted_order(sizes) if sorting else None
            stats.steps = 1
            pb.aux(StepSizesKernel(sizes, 0, max_n, remaining_dev, panel_dev, stats_dev))
            jbs = sizes.astype(np.int64)
            if order is None:
                with pb.tagged("panel"):
                    pb.launch(PanelGetf2Kernel(sizes, precision, 0, jbs, ipivs, max_n))
            else:
                windows = partition_windows(sizes, order, 0, panel_nb, _WINDOW_MIN_COUNT)
                stats.window_launches_max = len(windows)
                for win in windows:
                    with pb.tagged("panel"):
                        pb.launch(
                            PanelGetf2Kernel(
                                sizes, precision, 0, jbs, ipivs, win.max_m, indices=win.indices
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

                with pb.tagged("panel"):
                    pb.launch(PanelGetf2Kernel(sizes, precision, offset, jbs, ipivs, max_rows))
                with pb.tagged("swap"):
                    pb.launch(RowSwapKernel(sizes, precision, offset, jbs, ipivs, max_rows))
                with pb.tagged("trsm"):
                    pb.launch(
                        LeftTrsmKernel(
                            sizes, precision, offset, jbs, max_rows, uplo="l", diag="u"
                        )
                    )

                tasks = []
                for i in order:
                    i = int(i)
                    jb = int(jbs[i])
                    trail = int(remaining[i]) - jb
                    if jb == 0 or trail <= 0:
                        tasks.append(GemmTask(0, 0, 0))
                        continue
                    panel, rest = slice(offset, offset + jb), slice(offset + jb, None)
                    tasks.append(
                        GemmTask(
                            m=trail, n=trail, k=jb,
                            a=(BATCH, i, rest, panel), b=(BATCH, i, panel, rest),
                            c=(BATCH, i, rest, rest), alpha=-1.0, beta=1.0,
                        )
                    )
                if any(t.m > 0 for t in tasks):
                    with pb.tagged("gemm"):
                        pb.launch(VbatchedGemmKernel(tasks, precision, label="lu_update"))
    except BaseException:
        pb.abandon()
        raise
    return pb.build(
        run_stats=stats,
        meta={
            "op": "getrf",
            "planner": approach,
            "panel_nb": panel_nb,
            "max_n": max_n,
            "outputs": {"ipivs": ipivs},
        },
    )


def getrf_vbatched(
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
    """LU-factorize every matrix in the batch, in place.

    Each matrix ends up holding ``L`` (unit lower, implicit diagonal)
    and ``U`` in LAPACK storage; the :class:`~repro.ops.driver.OpResult`
    carries per-matrix info codes and 1-based pivot rows in
    ``outputs["ipivs"]``.  ``max_n`` defaults to a device-side
    reduction (the LAPACK-like interface path).
    """
    from ..ops.driver import run_op_vbatched
    from ..ops.options import OpOptions

    if options is None:
        options = OpOptions(panel_nb=panel_nb)
    return run_op_vbatched(
        device, batch, max_n, "getrf", options,
        devices=devices, plan_cache=plan_cache, optimize=optimize,
    )
