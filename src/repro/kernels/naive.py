"""Generic (pre-fusion) batched BLAS building blocks.

The "separated building block BLAS kernels" baseline of Fig 4: the
standard batched approach of Haidar et al. [13] *without* kernel
fusion.  Its unblocked ``potf2`` keeps the tile in global memory — every
dependent column step round-trips through DRAM — and each Algorithm-1
step costs three to four kernel launches instead of one.  That is the
overhead kernel fusion removes, and why the fused kernel wins by up to
13x (SP) / 7x (DP) on tiny matrices.
"""

from __future__ import annotations

import numpy as np

from .. import flops as _flops
from ..hostblas import potf2 as host_potf2
from ..types import Precision, precision_info
from ..device.kernel import BATCH, BlockWork, Kernel, LaunchConfig, array_key
from . import grouping

__all__ = ["NaivePotf2Kernel"]

_WARP = 32


class NaivePotf2Kernel(Kernel):
    """Vbatched unblocked Cholesky of each matrix's diagonal tile.

    One thread block per matrix; the column sweep is serial with global
    memory operands (``serial_latency_scale``), exactly the generic
    batched ``potf2`` the fused kernel replaces.
    """

    etm_mode = "classic"
    compute_efficiency = 0.25
    serial_latency_scale = 24.0

    def __init__(self, precision, offset: int, jbs: np.ndarray, max_jb: int):
        super().__init__()
        if offset < 0:
            raise ValueError(f"offset cannot be negative, got {offset}")
        if max_jb <= 0:
            raise ValueError(f"max_jb must be positive, got {max_jb}")
        self.offset = offset
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.max_jb = int(max_jb)
        self._info = precision_info(precision)
        self.name = f"naive_potf2:{self._info.name}"

    @property
    def precision(self) -> Precision:
        return self._info.precision

    def launch_config(self) -> LaunchConfig:
        threads = min(1024, -(-self.max_jb // _WARP) * _WARP)
        return LaunchConfig(threads_per_block=threads, shared_mem_per_block=0)

    def cost_key(self) -> tuple:
        return (array_key(self.jbs),)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        jbs, counts = grouping.grouped_first_seen(self.jbs)
        works: list[BlockWork] = []
        for jb, count in zip(jbs.tolist(), counts.tolist()):
            if jb == 0:
                works.append(BlockWork(0.0, 0.0, active_threads=0, count=count))
                continue
            works.append(
                BlockWork(
                    flops=_flops.potf2_flops(jb) * w,
                    # Column sweeps in global memory are strided and
                    # uncoalesced: each of the jb steps re-touches the
                    # trailing columns at cache-line granularity, ~10x
                    # the useful read+write footprint.
                    bytes=10.0 * jb * jb * elem,
                    serial_iters=float(jb),
                    active_threads=jb,
                    count=count,
                )
            )
        return BlockWork.pack(works)

    def _tile(self, batch, i: int, jb: int) -> np.ndarray:
        return batch.matrix_view(i)[
            self.offset : self.offset + jb, self.offset : self.offset + jb
        ]

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        infos = batch.infos_dev.data
        live = np.flatnonzero((self.jbs > 0) & (infos[: len(self.jbs)] == 0))
        if live.size == 0:
            return
        if grouping.reference_enabled():
            for i in live:
                i = int(i)
                info = host_potf2(self._tile(batch, i, int(self.jbs[i])), "l")
                if info != 0:
                    infos[i] = self.offset + info
            return
        # One step as wide as the widest tile is a whole unblocked potf2.
        tiles = [self._tile(batch, int(i), int(self.jbs[i])) for i in live]
        ret = grouping.stacked_potrf_step(tiles, 0, int(self.jbs[live].max()))
        bad = ret > 0
        if bad.any():
            infos[live[bad]] = self.offset + ret[bad]
