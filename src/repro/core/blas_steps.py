"""The separated building-block BLAS driver (the Fig 4 baseline).

The pre-fusion batched approach of Haidar et al. [13]: a left-looking
blocked Cholesky where *every* Algorithm-1 step is its own generic
batched BLAS launch — a vbatched ``gemm`` for the panel update, a
generic (global-memory) ``potf2`` for the diagonal tile, and the
trtri+gemm ``trsm`` for the rows below.  Three to five kernel launches
and full DRAM round-trips per ``nb`` step, versus the fused kernel's
one launch and shared-memory panel: the gap between the two is exactly
what Fig 4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.kernel import BATCH
from ..errors import ArgumentError
from ..kernels.aux import StepSizesKernel
from ..kernels.gemm import GemmTask, GemmTiling, VbatchedGemmKernel
from ..kernels.naive import NaivePotf2Kernel
from ..kernels.trsm import TrsmPanelItem, vbatched_trsm_panel
from .batch import VBatch
from .plan import LaunchPlan, PlanBuilder

__all__ = ["BlasStepDriver", "BlasStepRunStats"]


@dataclass
class BlasStepRunStats:
    """Launch accounting for the separated-BLAS baseline."""

    steps: int = 0
    gemm_launches: int = 0
    potf2_launches: int = 0
    trsm_launches: int = 0
    aux_launches: int = 0

    @property
    def total_launches(self) -> int:
        return self.gemm_launches + self.potf2_launches + self.trsm_launches


class BlasStepDriver:
    """Runs the un-fused batched-BLAS Cholesky over a :class:`VBatch`."""

    def __init__(self, device, nb: int | None = None, ib: int = 32, tiling: GemmTiling | None = None):
        if nb is not None and nb <= 0:
            raise ArgumentError(2, f"nb must be positive, got {nb}")
        self.device = device
        self.nb = nb
        self.ib = ib
        self.tiling = tiling  # None -> per-precision default in each kernel

    def plan(self, batch: VBatch, max_n: int) -> LaunchPlan:
        """Emit the un-fused gemm/potf2/trsm launch DAG."""
        if max_n <= 0:
            raise ArgumentError(3, f"max_n must be positive, got {max_n}")
        # Generic blocked codes widen the panel once the matrix can use
        # it (the MKL/MAGMA nb heuristic).
        nb = self.nb if self.nb is not None else (16 if max_n <= 64 else 32)
        stats = BlasStepRunStats()
        sizes = batch.sizes_host
        precision = batch.precision
        k_count = len(sizes)
        pb = PlanBuilder(self.device)

        try:
            remaining_dev = pb.workspace((k_count,), np.int64)
            panel_dev = pb.workspace((k_count,), np.int64)
            stats_dev = pb.workspace((2,), np.int64)
            pb.operand_workspace((k_count, nb, nb), batch.dtype)

            steps = -(-max_n // nb)
            for s in range(steps):
                offset = s * nb
                pb.aux(StepSizesKernel(sizes, offset, nb, remaining_dev, panel_dev, stats_dev))
                stats.aux_launches += 1
                stats.steps += 1

                remaining = np.maximum(0, sizes - offset)
                jbs = np.minimum(remaining, nb)
                max_jb = int(jbs.max())
                if max_jb == 0:
                    break

                # 1) Panel update (left-looking): one generic gemm reading
                #    both operands from global memory — no data reuse with
                #    the slice of A the customized fused syrk exploits.
                if offset > 0:
                    tasks = []
                    for i in range(k_count):
                        m_i, jb = int(remaining[i]), int(jbs[i])
                        if jb == 0:
                            tasks.append(GemmTask(0, 0, 0))
                            continue
                        below, history = slice(offset, None), slice(0, offset)
                        tasks.append(
                            GemmTask(
                                m=m_i, n=jb, k=offset,
                                a=(BATCH, i, below, history),
                                b=(BATCH, i, slice(offset, offset + jb), history),
                                c=(BATCH, i, below, slice(offset, offset + jb)),
                                transb="c", alpha=-1.0, beta=1.0,
                            )
                        )
                    update = VbatchedGemmKernel(tasks, precision, self.tiling, label="panel_update")
                    update.matrix_indices = tuple(range(len(tasks)))
                    pb.launch(update, tag="gemm")
                    stats.gemm_launches += 1

                # 2) Diagonal tile: generic global-memory potf2.
                pb.launch(NaivePotf2Kernel(precision, offset, jbs, max_jb), tag="potf2")
                stats.potf2_launches += 1

                # 3) Rows below the tile: trtri + gemm sweep.
                items = []
                for i in range(k_count):
                    jb = int(jbs[i])
                    m_below = int(remaining[i]) - jb
                    if jb == 0 or m_below <= 0:
                        items.append(TrsmPanelItem(0, 0))
                        continue
                    items.append(TrsmPanelItem(m_below, jb, offset))
                if any(it.m > 0 for it in items):
                    with pb.tagged("trsm"):
                        stats.trsm_launches += vbatched_trsm_panel(
                            pb, items, precision, self.ib, self.tiling
                        )
        except BaseException:
            pb.abandon()
            raise
        return pb.build(run_stats=stats, meta={"planner": "blas-steps", "nb": nb, "max_n": max_n})

    def factorize(self, batch: VBatch, max_n: int) -> BlasStepRunStats:
        from ..device.executor import PlanExecutor

        plan = self.plan(batch, max_n)
        try:
            PlanExecutor(self.device).execute(plan, batch)
        finally:
            plan.close()
        return plan.run_stats
