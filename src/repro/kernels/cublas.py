"""Single-matrix kernels in the style of vendor (cuBLAS) routines.

Used by the baselines: the MAGMA-hybrid algorithm launches one gemm /
syrk per matrix per step on the GPU (panel on the CPU), and the
streamed-syrk alternative launches one vendor syrk per matrix.  A
single small matrix cannot fill the device — that is the paper's whole
motivation — and these kernels show it: their grids have few blocks, so
most SM slots idle.
"""

from __future__ import annotations

import numpy as np

from .. import flops as _flops
from ..hostblas import gemm as host_gemm, potf2 as host_potf2
from ..types import Precision, precision_info
from ..device.kernel import BlockWork, Kernel, LaunchConfig
from .gemm import GemmTiling

__all__ = ["SingleGemmKernel", "SinglePotf2Kernel"]


class SingleGemmKernel(Kernel):
    """A well-tuned large-matrix gemm applied to one (small) matrix."""

    etm_mode = "classic"
    compute_efficiency = 0.75

    def __init__(self, m: int, n: int, k: int, precision: Precision,
                 a: np.ndarray | None = None, b: np.ndarray | None = None,
                 c: np.ndarray | None = None, transb: str = "n",
                 alpha: complex = 1.0, beta: complex = 1.0,
                 tiling: GemmTiling | None = None):
        super().__init__()
        if min(m, n, k) < 0:
            raise ValueError(f"negative gemm dims ({m}, {n}, {k})")
        self.m, self.n, self.k = m, n, k
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.a, self.b, self.c = a, b, c
        self.transb = transb
        self.alpha, self.beta = alpha, beta
        self.tiling = tiling or GemmTiling.for_precision(self._info.bytes_per_element)
        self.name = f"cublas_gemm:{self._info.name}"

    @property
    def precision(self) -> Precision:
        return self._prec

    def launch_config(self) -> LaunchConfig:
        t = self.tiling
        return LaunchConfig(t.threads, t.shared_mem(self._info.bytes_per_element), t.regs_per_thread, ilp=4.0)

    def cost_key(self) -> tuple:
        return (self.tiling.key(), self.m, self.n, self.k)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        t = self.tiling
        tiles = max(1, -(-self.m // t.blk_m)) * max(1, -(-self.n // t.blk_n))
        if self.m == 0 or self.n == 0:
            return BlockWork.pack([BlockWork(0.0, 0.0, active_threads=0, count=1)])
        flops = _flops.gemm_flops(self.m, self.n, self.k, None) * self._info.flop_weight / tiles
        elem = self._info.bytes_per_element
        em, en = min(t.blk_m, self.m), min(t.blk_n, self.n)
        bytes_ = ((em + en) * self.k + 2.0 * em * en) * elem
        active = max(1, round(t.threads * (em * en) / (t.blk_m * t.blk_n)))
        return BlockWork.pack([BlockWork(flops, bytes_, active_threads=active, count=tiles)])

    def run_numerics(self, operands) -> None:
        if self.c is None or self.m == 0 or self.n == 0:
            return
        host_gemm("n", self.transb, self.alpha, self.a, self.b, self.beta, self.c)


class SinglePotf2Kernel(Kernel):
    """One-block unblocked Cholesky of a single tile on the device.

    The GPU-resident fallback for tiny diagonal tiles: one thread block,
    one serial column sweep — low throughput by construction, which is
    why hybrid algorithms place this step on the CPU instead.
    """

    compute_efficiency = 0.25

    def __init__(self, n: int, precision: Precision, a: np.ndarray | None = None,
                 info_out: np.ndarray | None = None, info_offset: int = 0):
        super().__init__()
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if n > 1024:
            raise ValueError(f"single-block potf2 limited to 1024 rows, got {n}")
        self.n = n
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.a = a
        self.info_out = info_out
        self.info_offset = info_offset
        self.name = f"potf2_single:{self._info.name}"

    @property
    def precision(self) -> Precision:
        return self._prec

    def launch_config(self) -> LaunchConfig:
        threads = min(1024, -(-self.n // 32) * 32)
        smem = self.n * min(self.n, 64) * self._info.bytes_per_element
        return LaunchConfig(threads, min(smem, 48 * 1024))

    def cost_key(self) -> tuple:
        return (self.n,)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        return BlockWork.pack([
            BlockWork(
                flops=_flops.potf2_flops(self.n) * self._info.flop_weight,
                bytes=2.0 * self.n * self.n * self._info.bytes_per_element,
                serial_iters=float(self.n),
                active_threads=self.n,
                count=1,
            )
        ])

    def run_numerics(self, operands) -> None:
        if self.a is None:
            return
        info = host_potf2(self.a, "l")
        if info != 0 and self.info_out is not None:
            self.info_out[0] = self.info_offset + info
