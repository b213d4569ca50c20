"""Approach 2: the separated vbatched BLAS planner (paper §III-E).

A right-looking blocked Cholesky at panel width ``NB``: each step plans

1. vbatched ``potf2`` on the ``jb x jb`` diagonal tiles (the fused
   kernel reused tile-locally, §III-E1),
2. vbatched ``trsm`` on the rows below (trtri + gemm sweep, §III-E2),
3. vbatched ``syrk`` on the trailing submatrices (§III-E3) — either the
   MAGMA-style single launch or the streamed per-matrix alternative,
   which maps to round-robin logical streams joined by a plan barrier.

The planner passes per-step size information through the auxiliary
kernels so finished matrices are "ignored onward as the computation
progresses" (§III-F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.kernel import BATCH
from ..errors import ArgumentError
from ..kernels import grouping
from ..kernels.aux import StepSizesKernel
from ..kernels.gemm import GemmTask, GemmTiling, VbatchedGemmKernel
from ..kernels.naive import NaivePotf2Kernel
from ..kernels.potf2 import PanelPotf2StepKernel
from ..kernels.syrk import SyrkTask, VbatchedSyrkKernel
from ..kernels.trsm import TrsmPanelItem, vbatched_trsm_panel
from .batch import VBatch
from .fused import default_fused_nb
from .plan import LaunchPlan, PlanBuilder

__all__ = ["SeparatedDriver", "SeparatedRunStats"]


@dataclass
class SeparatedRunStats:
    """Launch accounting for one separated-driver run."""

    steps: int = 0
    potf2_launches: int = 0
    trsm_launches: int = 0
    syrk_launches: int = 0
    aux_launches: int = 0


class SeparatedDriver:
    """Runs the separated-BLAS approach over a :class:`VBatch`."""

    def __init__(
        self,
        device,
        panel_nb: int = 128,
        inner_nb: int | None = None,
        ib: int = 32,
        tiling: GemmTiling | None = None,
        syrk_mode: str = "vbatched",
        syrk_streams: int = 32,
        panel_mode: str = "fused",
    ):
        if panel_nb <= 0:
            raise ArgumentError(2, f"panel_nb must be positive, got {panel_nb}")
        if syrk_mode not in ("vbatched", "streamed"):
            raise ArgumentError(6, f"syrk_mode must be 'vbatched' or 'streamed', got {syrk_mode!r}")
        if panel_mode not in ("fused", "naive"):
            raise ArgumentError(8, f"panel_mode must be 'fused' or 'naive', got {panel_mode!r}")
        self.device = device
        self.panel_nb = panel_nb
        self.inner_nb = inner_nb
        self.ib = ib
        self.tiling = tiling  # None -> per-precision default in each kernel
        self.syrk_mode = syrk_mode
        self.syrk_streams = syrk_streams
        # "fused" factorizes diagonal tiles with the fused kernel
        # (§III-E1); "naive" uses the pre-fusion generic potf2 sweep
        # (the [13]-era baseline that Fig 4 compares against).
        self.panel_mode = panel_mode

    def plan(self, batch: VBatch, max_n: int) -> LaunchPlan:
        """Emit the per-step potf2/trsm/syrk launch DAG."""
        if max_n <= 0:
            raise ArgumentError(3, f"max_n must be positive, got {max_n}")
        NB = self.panel_nb
        inner_nb = self.inner_nb or default_fused_nb(NB, batch.precision)
        stats = SeparatedRunStats()
        sizes = batch.sizes_host
        precision = batch.precision
        k = len(sizes)
        pb = PlanBuilder(self.device)

        try:
            remaining_dev = pb.workspace((k,), np.int64)
            panel_dev = pb.workspace((k,), np.int64)
            stats_dev = pb.workspace((2,), np.int64)
            # trsm workspace: inverted diagonal blocks of every panel.
            pb.operand_workspace((k, NB, NB), batch.dtype)

            steps = -(-max_n // NB)
            for s in range(steps):
                offset = s * NB
                # Metadata for the downstream kernels stays on the device;
                # the host shapes launches from the interface max (§III-F).
                pb.aux(StepSizesKernel(sizes, offset, NB, remaining_dev, panel_dev, stats_dev))
                stats.aux_launches += 1
                if max_n - offset <= 0:
                    break
                stats.steps += 1

                remaining = np.maximum(0, sizes - offset)
                jbs = np.minimum(remaining, NB)
                max_jb = int(jbs.max())
                jb_list = jbs.tolist()
                rem_list = remaining.tolist()

                # 1) Panel factorization on the diagonal tiles.
                if self.panel_mode == "fused":
                    for t in range(-(-max_jb // inner_nb)):
                        # Pre-group the sub-step's live tile heights on
                        # the host; the kernel's timing plane consumes
                        # the buckets directly.
                        pb.launch(
                            PanelPotf2StepKernel(
                                precision, offset, t, inner_nb, jbs, max_jb, etm="aggressive",
                                groups=grouping.grouped_first_seen(
                                    np.maximum(0, jbs - t * inner_nb)
                                ),
                            ),
                            tag="potf2",
                        )
                        stats.potf2_launches += 1
                else:
                    stats.potf2_launches += self._naive_panel(pb, precision, offset, jbs, max_jb)

                # 2) Triangular solve for the rows below each tile.
                items = [
                    TrsmPanelItem(max(0, rem - jb), jb, offset) if jb > 0 else TrsmPanelItem(0, 0)
                    for jb, rem in zip(jb_list, rem_list)
                ]
                if any(it.jb > 0 and it.m > 0 for it in items):
                    with pb.tagged("trsm"):
                        stats.trsm_launches += vbatched_trsm_panel(
                            pb, items, precision, self.ib, self.tiling
                        )

                # 3) Trailing update: C -= B B^H on what remains.
                tasks = []
                for i in range(k):
                    jb = jb_list[i]
                    n_trail = rem_list[i] - jb
                    if jb <= 0 or n_trail <= 0:
                        tasks.append(SyrkTask(0, 0))
                        continue
                    trail = slice(offset + jb, None)
                    tasks.append(
                        SyrkTask(
                            n=n_trail,
                            k=jb,
                            a=(BATCH, i, trail, slice(offset, offset + jb)),
                            c=(BATCH, i, trail, trail),
                        )
                    )
                if any(t.n > 0 for t in tasks):
                    if self.syrk_mode == "streamed":
                        # cuBLAS-style alternative: one kernel per matrix,
                        # round-robin across logical streams, joined by a
                        # host barrier before the next step's aux launch.
                        live = [(i, t) for i, t in enumerate(tasks) if t.n > 0]
                        for slot, (i, task) in enumerate(live):
                            kernel = VbatchedSyrkKernel([task], precision, self.tiling)
                            kernel.name = f"streamed_syrk:{kernel._info.name}"
                            kernel.matrix_indices = (i,)
                            pb.launch(kernel, stream=1 + slot % self.syrk_streams, tag="syrk")
                        stats.syrk_launches += len(live)
                        pb.barrier()
                    else:
                        kernel = VbatchedSyrkKernel(tasks, precision, self.tiling)
                        kernel.matrix_indices = tuple(range(len(tasks)))
                        pb.launch(kernel, tag="syrk")
                        stats.syrk_launches += 1
        except BaseException:
            pb.abandon()
            raise
        return pb.build(
            run_stats=stats, meta={"planner": "separated", "panel_nb": NB, "max_n": max_n}
        )

    def factorize(self, batch: VBatch, max_n: int) -> SeparatedRunStats:
        from ..device.executor import PlanExecutor

        plan = self.plan(batch, max_n)
        try:
            PlanExecutor(self.device).execute(plan, batch)
        finally:
            plan.close()
        return plan.run_stats

    def _naive_panel(self, pb, precision, offset, jbs, max_jb) -> int:
        """Pre-fusion tile factorization: generic potf2 + gemm + trsm.

        Sweeps the ``jb x jb`` diagonal tiles in ``ib``-wide sub-steps,
        each costing a generic gemm update, a global-memory potf2 and a
        tile-local trsm — the launch pattern kernel fusion collapses
        into one kernel.
        """
        ib = self.ib
        launches = 0
        k_count = len(jbs)
        for t in range(-(-max_jb // ib)):
            local = t * ib
            sub_jbs = np.clip(jbs - local, 0, ib)
            if int(sub_jbs.max()) == 0:
                break
            col0 = offset + local
            # Left-looking update of this sub-panel from the tile-local
            # history columns.
            if local > 0:
                tasks = []
                for i in range(k_count):
                    rows = max(0, int(jbs[i]) - local)
                    width = int(sub_jbs[i])
                    if width == 0:
                        tasks.append(GemmTask(0, 0, 0))
                        continue
                    below = slice(col0, offset + int(jbs[i]))
                    history = slice(offset, col0)
                    tasks.append(
                        GemmTask(
                            m=rows, n=width, k=local,
                            a=(BATCH, i, below, history),
                            b=(BATCH, i, slice(col0, col0 + width), history),
                            c=(BATCH, i, below, slice(col0, col0 + width)),
                            transb="c", alpha=-1.0, beta=1.0,
                        )
                    )
                pb.launch(
                    VbatchedGemmKernel(tasks, precision, self.tiling, label="panel_update"),
                    tag="potf2",
                )
                launches += 1

            pb.launch(NaivePotf2Kernel(precision, col0, sub_jbs, int(sub_jbs.max())), tag="potf2")
            launches += 1

            # Tile-local trsm for panel rows below the ib sub-tile.
            items = []
            for i in range(k_count):
                width = int(sub_jbs[i])
                rows_below = max(0, int(jbs[i]) - local - width)
                if width == 0 or rows_below == 0:
                    items.append(TrsmPanelItem(0, 0))
                    continue
                items.append(TrsmPanelItem(rows_below, width, col0))
            if any(it.m > 0 for it in items):
                with pb.tagged("potf2"):
                    launches += vbatched_trsm_panel(pb, items, precision, ib, self.tiling)
        return launches
