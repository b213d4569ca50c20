"""Vbatched triangular solve for the separated approach (paper §III-E2).

Follows the design of Haidar et al. [13] that the paper adopts: invert
the ``ib x ib`` (typically 32x32) diagonal blocks of each panel with a
vbatched ``trtri``, then sweep the panel's column blocks, each sweep
step being a pair of vbatched ``gemm`` launches — one applying the
inverted diagonal block, one updating the columns to its right.  Every
launch is vbatched across all matrices; matrices whose panel is
narrower than the current column block contribute ETM'd (dead) blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..device.kernel import BATCH, WORKSPACE
from ..types import Precision
from .gemm import GemmTask, GemmTiling, VbatchedGemmKernel
from .trtri import TrtriTask, VbatchedTrtriDiagKernel

__all__ = ["TrsmPanelItem", "vbatched_trsm_panel"]


@dataclass
class TrsmPanelItem:
    """One matrix's panel solve: ``B[m x jb] := B @ L11^{-H}``.

    The matrix is the item's position in the panel's item list.
    ``L11`` starts at row and column ``offset``, ``B`` is the ``m`` rows
    below it, and the inverted diagonal blocks go to that matrix's
    leading ``jb x jb`` window of the ``WORKSPACE`` container.
    """

    m: int
    jb: int
    offset: int = 0

    def __post_init__(self):
        if self.m < 0 or self.jb < 0:
            raise ValueError(f"negative trsm dimensions: {self}")


def vbatched_trsm_panel(
    device,
    items: list[TrsmPanelItem],
    precision: Precision,
    ib: int = 32,
    tiling: GemmTiling | None = None,
) -> int:
    """Enqueue the trtri + gemm-sweep launches for a panel solve.

    Returns the number of kernel launches issued (the separated
    approach's launch count is what the fusion comparison in Fig 4 is
    about).
    """
    if not items:
        raise ValueError("trsm panel needs at least one item")
    if ib <= 0:
        raise ValueError(f"ib must be positive, got {ib}")
    live = [it for it in items if it.jb > 0]
    if not live:
        return 0
    # Positions in `items` are batch indices; annotate every launch so
    # the plan optimizer knows which matrices each one touches.
    live_indices = tuple(i for i, it in enumerate(items) if it.jb > 0)
    # Per live item: matrix index, item, L11's origin, B's rows.
    live_items = [
        (i, it, it.offset, slice(it.offset + it.jb, it.offset + it.jb + it.m))
        for i, it in zip(live_indices, live)
    ]
    launches = 0
    trtri_tasks = []
    for i, it, o, _ in live_items:
        l11, inv = slice(o, o + it.jb), slice(0, it.jb)
        trtri_tasks.append(TrtriTask(it.jb, (BATCH, i, l11, l11), (WORKSPACE, i, inv, inv)))
    trtri = VbatchedTrtriDiagKernel(trtri_tasks, precision, ib)
    trtri.matrix_indices = live_indices
    device.launch(trtri)
    launches += 1

    max_jb = max(it.jb for it in live)
    n_col_blocks = -(-max_jb // ib)
    for cb in range(n_col_blocks):
        c0 = cb * ib
        # Update step: columns of this block see the already-solved
        # columns to their left (skipped for the first block).
        if c0 > 0:
            tasks = []
            for i, it, o, rows in live_items:
                c1 = min(c0 + ib, it.jb)
                if c1 <= c0:
                    tasks.append(GemmTask(0, 0, 0))
                    continue
                left, block = slice(o, o + c0), slice(o + c0, o + c1)
                tasks.append(GemmTask(
                    m=it.m, n=c1 - c0, k=c0, a=(BATCH, i, rows, left),
                    b=(BATCH, i, block, left), c=(BATCH, i, rows, block),
                    transb="c", alpha=-1.0, beta=1.0,
                ))
            update = VbatchedGemmKernel(tasks, precision, tiling, label="trsm_update")
            update.matrix_indices = live_indices
            device.launch(update)
            launches += 1

        # Solve step: multiply by the inverted diagonal block.
        tasks = []
        for i, it, o, rows in live_items:
            c1 = min(c0 + ib, it.jb)
            if c1 <= c0:
                tasks.append(GemmTask(0, 0, 0))
                continue
            b, inv = (BATCH, i, rows, slice(o + c0, o + c1)), slice(c0, c1)
            tasks.append(GemmTask(
                m=it.m, n=c1 - c0, k=c1 - c0, a=b, b=(WORKSPACE, i, inv, inv), c=b,
                transb="c", alpha=1.0, beta=0.0,
            ))
        solve = VbatchedGemmKernel(tasks, precision, tiling, label="trsm_solve")
        solve.matrix_indices = live_indices
        device.launch(solve)
        launches += 1
    return launches
