"""Vbatched panel factorization for the separated approach (§III-E1).

"We reuse the fused kernel described in Section III-D in order to
factorize a square panel of size NB, where NB > nb."  This kernel is
the fused step kernel *restricted to the diagonal tile*: the history
for the customized syrk update is only the columns inside the tile
(the trailing matrix was already updated by the previous step's syrk),
and threads cover tile rows only.
"""

from __future__ import annotations

import numpy as np

from ..types import Precision, precision_info
from ..device.kernel import BATCH, BlockWork, Kernel, LaunchConfig, array_key
from . import grouping
from .fused_potrf import fused_shared_mem_bytes
from .grouping import fused_step_numerics

__all__ = ["PanelPotf2StepKernel"]

_WARP = 32


class PanelPotf2StepKernel(Kernel):
    """One ``nb``-step of the fused kernel on each matrix's ``jb x jb`` tile.

    Parameters mirror :class:`FusedPotrfStepKernel`, with ``offset`` the
    tile's global column origin and ``jbs`` the per-matrix tile orders
    (``min(NB, n_i - offset)``, zero for finished matrices), which are
    all the shape it needs.
    """

    compute_efficiency = 0.70  # same inner loop as the fused kernel

    def __init__(self, precision, offset: int, inner_step: int, nb: int,
                 jbs: np.ndarray, max_jb: int, etm: str = "aggressive",
                 groups: tuple[np.ndarray, np.ndarray] | None = None):
        self.etm_mode = etm
        super().__init__()
        if nb <= 0 or inner_step < 0 or offset < 0:
            raise ValueError(
                f"invalid panel step: offset={offset} inner_step={inner_step} nb={nb}"
            )
        if max_jb <= 0:
            raise ValueError(f"max_jb must be positive, got {max_jb}")
        self.offset = offset
        self.inner_step = inner_step
        self.nb = nb
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.max_jb = int(max_jb)
        # Pre-grouped (remaining, counts) handed down by the driver;
        # None -> derive from jbs at launch time.
        self.groups = groups
        self._info = precision_info(precision)
        self.name = f"vbatched_potf2:{self._info.name}"
        threads = min(1024, -(-self.max_jb // _WARP) * _WARP)
        self._config = LaunchConfig(
            threads_per_block=threads,
            shared_mem_per_block=fused_shared_mem_bytes(
                min(self.max_jb, threads), nb, self._info.bytes_per_element
            ),
            regs_per_thread=48,
            ilp=2.0,
        )

    @property
    def precision(self) -> Precision:
        return self._info.precision

    def launch_config(self) -> LaunchConfig:
        return self._config

    def cost_key(self) -> tuple:
        if self.groups is not None:
            ms, counts = self.groups
            return (self.inner_step, self.nb, array_key(ms), array_key(counts))
        return (self.inner_step, self.nb, array_key(self.jbs))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        k = self.inner_step * self.nb
        if self.groups is not None:
            ms, counts = self.groups
        else:
            ms, counts = grouping.grouped_first_seen(np.maximum(0, self.jbs - k))
        m = ms.astype(np.float64)
        jb_step = np.minimum(float(self.nb), m)
        flops = jb_step**3 / 3.0 + jb_step**2 / 2.0 + jb_step / 6.0
        if k > 0:
            flops = flops + 2.0 * m * jb_step * k
        flops = flops + np.where(m > jb_step, (m - jb_step) * jb_step * jb_step, 0.0)
        bytes_ = (m * k + 2.0 * m * jb_step) * elem
        serial = 2.0 * jb_step
        works: list[BlockWork] = []
        for i, (mi, count) in enumerate(zip(ms.tolist(), counts.tolist())):
            if mi == 0:
                works.append(BlockWork(0.0, 0.0, active_threads=0, count=count))
            else:
                works.append(
                    BlockWork(
                        flops=flops[i] * w,
                        bytes=bytes_[i],
                        serial_iters=serial[i],
                        active_threads=mi,
                        count=count,
                    )
                )
        return BlockWork.pack(works)

    def _tile(self, batch, i: int, jb: int) -> np.ndarray:
        return batch.matrix_view(i)[self.offset : self.offset + jb,
                                    self.offset : self.offset + jb]

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        infos = batch.infos_dev.data
        local = self.inner_step * self.nb
        live = np.flatnonzero((self.jbs > local) & (infos[: len(self.jbs)] == 0))
        if live.size == 0:
            return
        if grouping.reference_enabled():
            for i in live:
                i = int(i)
                info = fused_step_numerics(self._tile(batch, i, int(self.jbs[i])), local, self.nb)
                if info != 0:
                    infos[i] = self.offset + info
            return
        tiles = [self._tile(batch, int(i), int(self.jbs[i])) for i in live]
        ret = grouping.stacked_potrf_step(tiles, local, self.nb)
        bad = ret > 0
        if bad.any():
            infos[live[bad]] = self.offset + ret[bad]
