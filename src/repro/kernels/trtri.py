"""Vbatched inversion of triangular diagonal blocks (paper §III-E2).

The vbatched ``trsm`` begins by inverting each matrix's ``ib x ib``
diagonal blocks (typically 32x32) with a ``trtri`` kernel; one thread
block inverts one diagonal block.  ETM-classic only: the inversion body
synchronizes all threads in the block.
"""

from __future__ import annotations

import numpy as np

from ..hostblas import trtri as host_trtri
from ..types import Precision, precision_info
from ..device.kernel import BlockWork, Kernel, LaunchConfig, operand
from . import grouping
from .gemm import _merged_works

__all__ = ["VbatchedTrtriDiagKernel", "TrtriTask"]


class TrtriTask:
    """Diagonal-block inversion for one matrix's ``jb x jb`` triangle.

    ``tri`` names the triangle and ``inv_out`` the window receiving the
    inverted diagonal blocks (a workspace the follow-up gemms consume),
    as :class:`~repro.kernels.gemm.GemmTask` operands.
    """

    __slots__ = ("jb", "tri", "inv_out")

    def __init__(self, jb: int, tri: tuple | None = None, inv_out: tuple | None = None):
        if jb < 0:
            raise ValueError(f"jb cannot be negative, got {jb}")
        self.jb = jb
        self.tri = tri
        self.inv_out = inv_out


class VbatchedTrtriDiagKernel(Kernel):
    """Invert every task's diagonal ``ib``-blocks in one launch."""

    etm_mode = "classic"
    compute_efficiency = 0.40  # substitution-heavy, shared-memory bound

    def __init__(self, tasks: list[TrtriTask], precision: Precision, ib: int = 32):
        super().__init__()
        if not tasks:
            raise ValueError("trtri launch needs at least one task")
        if ib <= 0:
            raise ValueError(f"ib must be positive, got {ib}")
        self.tasks = tasks
        self.ib = ib
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.max_jb = max(t.jb for t in tasks)
        self.name = f"vbatched_trtri:{self._info.name}"

    @property
    def precision(self) -> Precision:
        return self._prec

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig(
            threads_per_block=min(256, self.ib * self.ib),
            shared_mem_per_block=self.ib * self.ib * self._info.bytes_per_element,
        )

    def cost_key(self) -> tuple:
        jbs = np.fromiter((t.jb for t in self.tasks), dtype=np.int64, count=len(self.tasks))
        return (self.ib, jbs.tobytes())

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        grid_per_matrix = max(1, -(-self.max_jb // self.ib))
        threads = min(256, self.ib * self.ib)
        nt = len(self.tasks)
        jb = np.fromiter((task.jb for task in self.tasks), dtype=np.float64, count=nt)
        live = np.ceil(jb / self.ib)
        dead = int(grid_per_matrix * nt - live.sum())
        keep = live > 0
        jb, live = jb[keep], live[keep]
        ib_eff = np.minimum(self.ib, jb)
        flops = (ib_eff**3 / 3.0 + 2.0 * ib_eff / 3.0) * w
        bytes_ = 2.0 * ib_eff * ib_eff * elem
        active = np.full(ib_eff.shape, threads, dtype=np.float64)
        works = _merged_works(flops, bytes_, active, live, serial=ib_eff)
        if dead:
            works.append(BlockWork(0.0, 0.0, active_threads=0, count=dead))
        return BlockWork.pack(works)

    def run_numerics(self, operands) -> None:
        live = [t for t in self.tasks if t.jb and t.tri is not None]
        if not live:
            return
        tris = [operand(operands, t.tri) for t in live]
        invs = [operand(operands, t.inv_out) for t in live]
        if grouping.reference_enabled():
            for task, tri, inv in zip(live, tris, invs):
                for j0 in range(0, task.jb, self.ib):
                    j1 = min(j0 + self.ib, task.jb)
                    # Must be an explicit copy: the factor itself stays
                    # intact, only the workspace receives the inverse
                    # (ascontiguousarray would alias contiguous slices).
                    block = tri[j0:j1, j0:j1].copy()
                    host_trtri("l", "n", block, nb=self.ib)
                    inv[j0:j1, j0:j1] = np.tril(block)
            return
        # Bucket by jb: every task's sequence of ib-wide diagonal blocks
        # then lines up, so each block position inverts as one stack.
        # A lone task takes the same stacked path, so its bits do not
        # depend on what else shares the launch.
        for bucket in grouping.partition_buckets([t.jb for t in live]):
            positions = bucket.positions
            jb = live[positions[0]].jb
            for j0 in range(0, jb, self.ib):
                j1 = min(j0 + self.ib, jb)
                stack = np.stack([tris[p][j0:j1, j0:j1] for p in positions])
                inv = grouping.batched_lower_trtri(stack)
                for p, blk in zip(positions, inv):
                    invs[p][j0:j1, j0:j1] = blk
