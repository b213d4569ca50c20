"""Vbatched symmetric rank-k update (paper §III-E3).

Two alternatives, exactly as the paper describes:

* :class:`VbatchedSyrkKernel` — inherits the gemm tiling plus "an
  additional decision layer that identifies thread blocks required to
  update either the upper or the lower triangular part ... terminating
  all other thread blocks" (ETM-classic on the dead triangle).
* :class:`StreamedSyrkLauncher` — the cuBLAS-style alternative: one
  kernel per matrix, concurrency through CUDA streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hostblas import syrk as host_syrk
from ..types import Precision, precision_info
from ..device.kernel import BlockWork, Kernel, LaunchConfig, operand
from . import grouping
from .gemm import GemmTiling, _merged_works

__all__ = ["SyrkTask", "VbatchedSyrkKernel", "StreamedSyrkLauncher"]


@dataclass(frozen=True)
class SyrkTask:
    """One matrix's update: ``C[n x n] := alpha op(A) op(A)^H + beta C``.

    ``trans='n'`` takes ``A`` as ``n x k``; ``trans='t'``/``'c'`` as
    ``k x n``.  Only the ``uplo`` triangle of ``C`` is touched.  The
    factorization drivers use the default lower/'n' rank-k subtraction.
    ``a``/``c`` name operands as in :class:`~repro.kernels.gemm.GemmTask`.
    """

    n: int
    k: int
    a: tuple | None = None
    c: tuple | None = None
    alpha: complex = -1.0
    beta: complex = 1.0
    uplo: str = "l"
    trans: str = "n"

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError(f"negative syrk dimensions: {self}")
        if self.uplo not in ("l", "u") or self.trans not in ("n", "t", "c"):
            raise ValueError(f"bad syrk flags: {self}")


class VbatchedSyrkKernel(Kernel):
    """Gemm-derived syrk with the triangular decision layer."""

    etm_mode = "classic"
    compute_efficiency = 0.75  # inherits the gemm inner loop

    def __init__(self, tasks: list[SyrkTask], precision: Precision, tiling: GemmTiling | None = None):
        super().__init__()
        if not tasks:
            raise ValueError("syrk launch needs at least one task")
        self.tasks = tasks
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.tiling = tiling or GemmTiling.for_precision(self._info.bytes_per_element)
        if self.tiling.blk_m != self.tiling.blk_n:
            raise ValueError("syrk decision layer requires square tiles")
        self.max_n = max(t.n for t in tasks)
        self.name = f"vbatched_syrk:{self._info.name}"

    @property
    def precision(self) -> Precision:
        return self._prec

    def launch_config(self) -> LaunchConfig:
        t = self.tiling
        return LaunchConfig(
            threads_per_block=t.threads,
            shared_mem_per_block=t.shared_mem(self._info.bytes_per_element),
            regs_per_thread=t.regs_per_thread,
            ilp=4.0,
        )

    def cost_key(self) -> tuple:
        dims = np.fromiter(
            (d for t in self.tasks for d in (t.n, t.k)), dtype=np.int64, count=2 * len(self.tasks)
        )
        return (self.tiling.key(), dims.tobytes())

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        t = self.tiling
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        tiles_max = max(1, -(-self.max_n // t.blk_m))
        grid = tiles_max * tiles_max  # full square grid, sized by max n
        nt = len(self.tasks)
        n = np.fromiter((task.n for task in self.tasks), dtype=np.float64, count=nt)
        k = np.fromiter((task.k for task in self.tasks), dtype=np.float64, count=nt)
        tiles = np.ceil(n / t.blk_m)
        live = tiles * (tiles + 1.0) / 2.0  # lower-triangle tiles only
        dead = int(grid * nt - live.sum())
        keep = live > 0
        n, k, live = n[keep], k[keep], live[keep]
        e = np.minimum(t.blk_m, n)
        rank = k > 0
        # k == 0: blocks scale C by beta only; almost free.
        flops = np.where(rank, n * (n + 1.0) * k * w / live, 0.0)
        bytes_ = np.where(rank, (2.0 * e * k + 2.0 * e * e) * elem, 2.0 * e * e * elem)
        active = np.where(
            rank,
            np.maximum(1, np.round(t.threads * (e * e) / (t.blk_m * t.blk_n))),
            t.threads,
        )
        works = _merged_works(flops, bytes_, active, live)
        if dead:
            works.append(BlockWork(0.0, 0.0, active_threads=0, count=dead))
        return BlockWork.pack(works)

    def run_numerics(self, operands) -> None:
        live = [t for t in self.tasks if t.n and t.c is not None]
        if not live:
            return
        if grouping.reference_enabled():
            for t in live:
                a, c = operand(operands, t.a), operand(operands, t.c)
                host_syrk(t.uplo, t.trans, t.alpha, a, t.beta, c)
            return
        buckets = grouping.partition_buckets(
            [(t.n, t.k, t.alpha, t.beta, t.uplo, t.trans) for t in live]
        )
        for bucket in buckets:
            tasks = [live[p] for p in bucket.positions]
            t0 = tasks[0]
            outs = [operand(operands, t.c) for t in tasks]
            if len(tasks) == 1:
                host_syrk(t0.uplo, t0.trans, t0.alpha, operand(operands, t0.a), t0.beta, outs[0])
                continue
            c = np.stack(outs)
            grouping.bucket_syrk(
                np.stack([operand(operands, t.a) for t in tasks]), c, t0.uplo, t0.trans,
                t0.alpha, t0.beta,
            )
            for out, slab in zip(outs, c):
                out[...] = slab


class StreamedSyrkLauncher:
    """cuBLAS-style alternative: one syrk kernel per matrix, on streams.

    The host issues one launch per matrix (serialized launch overhead);
    execution overlaps across ``num_streams`` round-robin streams,
    subject to the device's SM-area constraint.
    """

    def __init__(self, device, num_streams: int = 32, tiling: GemmTiling | None = None):
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        self.device = device
        self.streams = [device.create_stream() for _ in range(num_streams)]
        self.tiling = tiling  # None -> per-precision default in each kernel

    def launch_all(self, tasks: list[SyrkTask], precision: Precision) -> None:
        for i, task in enumerate(tasks):
            if task.n == 0:
                continue
            kernel = VbatchedSyrkKernel([task], precision, self.tiling)
            kernel.name = f"streamed_syrk:{kernel._info.name}"
            self.device.launch(kernel, stream=self.streams[i % len(self.streams)])

    def synchronize(self) -> float:
        for s in self.streams:
            s.synchronize()
        return self.device.synchronize()
