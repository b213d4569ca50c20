"""Vbatched tiled GEMM kernel (paper §III-E2, and [3]).

Grid model follows MAGMA's vbatched gemm: a 3-D grid sized for the
*maximum* M and N across the batch, with ``batchCount`` in the z
dimension.  Blocks whose tile falls outside their own matrix terminate
via ETM-classic (the kernel body synchronizes all threads, so the
aggressive mechanism is not applicable — §III-E2).

The kernel is generic over per-matrix operand descriptors so the same
class serves the trsm panel updates and the syrk-style updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hostblas import gemm as host_gemm
from ..types import Precision, precision_info
from ..device.kernel import BlockWork, Kernel, LaunchConfig, operand
from . import grouping

__all__ = ["GemmTiling", "GemmTask", "VbatchedGemmKernel"]


@dataclass(frozen=True)
class GemmTiling:
    """Tile shape of the gemm kernel (an autotuning axis)."""

    blk_m: int = 64
    blk_n: int = 64
    blk_k: int = 16
    threads: int = 256
    regs_per_thread: int = 64

    def __post_init__(self):
        if min(self.blk_m, self.blk_n, self.blk_k, self.threads) <= 0:
            raise ValueError(f"tiling dimensions must be positive: {self}")

    def shared_mem(self, bytes_per_element: int) -> int:
        """Double-buffered A and B tile staging."""
        return 2 * (self.blk_m + self.blk_n) * self.blk_k * bytes_per_element

    def key(self) -> tuple:
        """The tile shape as plain values, for kernels' cost keys."""
        return (self.blk_m, self.blk_n, self.blk_k, self.threads, self.regs_per_thread)

    @classmethod
    def for_precision(cls, bytes_per_element: int) -> GemmTiling:
        """Default tile shape per element size.

        The 64x64x16 shape fits shared memory for 4- and 8-byte
        elements; 16-byte (double-complex) elements need the 32x32
        variant — the same downsizing MAGMA's z-kernels apply.
        """
        if bytes_per_element <= 8:
            return cls()
        return cls(blk_m=32, blk_n=32, blk_k=16, threads=128, regs_per_thread=64)


@dataclass(frozen=True)
class GemmTask:
    """One matrix's gemm: ``C[m x n] += alpha * op(A)[m x k] @ op(B)[k x n]``.

    ``a``/``b``/``c`` name operands ``(slot, i, rows, cols)``
    (:func:`~repro.device.kernel.operand`; no ``c``: no numerics);
    ``m``/``n``/``k`` alone drive the cost.
    """

    m: int
    n: int
    k: int
    a: tuple | None = None
    b: tuple | None = None
    c: tuple | None = None
    transa: str = "n"
    transb: str = "n"
    alpha: complex = 1.0
    beta: complex = 1.0

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.k < 0:
            raise ValueError(f"negative gemm dimensions: {self}")


def _merged_works(
    flops: np.ndarray,
    bytes_: np.ndarray,
    active: np.ndarray,
    counts: np.ndarray,
    serial: np.ndarray | None = None,
) -> list[BlockWork]:
    """Collapse consecutive identical (flops, bytes, active) rows.

    Issue order is preserved, so the exact scheduler sees the same block
    sequence; merging only shrinks the grouped representation (vbatched
    launches typically carry long runs of same-shape tasks).
    """
    size = flops.size
    if size == 0:
        return []
    new = np.ones(size, dtype=bool)
    new[1:] = (
        (flops[1:] != flops[:-1])
        | (bytes_[1:] != bytes_[:-1])
        | (active[1:] != active[:-1])
    )
    if serial is not None:
        new[1:] |= serial[1:] != serial[:-1]
    starts = np.flatnonzero(new)
    merged = np.add.reduceat(counts, starts)
    return [
        BlockWork(
            flops=float(flops[i]),
            bytes=float(bytes_[i]),
            serial_iters=0.0 if serial is None else float(serial[i]),
            active_threads=int(active[i]),
            count=int(c),
        )
        for i, c in zip(starts.tolist(), merged.tolist())
    ]


class VbatchedGemmKernel(Kernel):
    """One launch covering every task's tiles plus the ETM'd excess."""

    etm_mode = "classic"
    compute_efficiency = 0.75  # register-tiled, double-buffered inner loop

    def __init__(self, tasks: list[GemmTask], precision: Precision,
                 tiling: GemmTiling | None = None, label: str = "gemm"):
        super().__init__()
        if not tasks:
            raise ValueError("gemm launch needs at least one task")
        self.tasks = tasks
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.tiling = tiling or GemmTiling.for_precision(self._info.bytes_per_element)
        self.max_m = max(t.m for t in tasks)
        self.max_n = max(t.n for t in tasks)
        self.name = f"vbatched_{label}:{self._info.name}"

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
            (d for t in self.tasks for d in (t.m, t.n, t.k)),
            dtype=np.int64, count=3 * len(self.tasks),
        )
        return (self.tiling.key(), dims.tobytes())

    def _grid_tiles(self) -> int:
        """Per-matrix grid size: sized for the max dims (paper §III-A)."""
        t = self.tiling
        return max(1, -(-self.max_m // t.blk_m)) * max(1, -(-self.max_n // t.blk_n))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        t = self.tiling
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        grid = self._grid_tiles()
        nt = len(self.tasks)
        m = np.fromiter((task.m for task in self.tasks), dtype=np.float64, count=nt)
        n = np.fromiter((task.n for task in self.tasks), dtype=np.float64, count=nt)
        k = np.fromiter((task.k for task in self.tasks), dtype=np.float64, count=nt)
        tiles = np.ceil(m / t.blk_m) * np.ceil(n / t.blk_n)
        live = np.where((m > 0) & (n > 0), np.minimum(tiles, grid), 0.0)
        dead = int(grid * nt - live.sum())
        keep = live > 0
        m, n, k, live = m[keep], n[keep], k[keep], live[keep]
        flops = 2.0 * m * n * k * w / live
        # Per tile: stream A and B panels for the k loop, read+write
        # C — at the tile dims actually touched (edge tiles load
        # only their live rows/columns).
        em, en = np.minimum(t.blk_m, m), np.minimum(t.blk_n, n)
        bytes_ = ((em + en) * k + 2.0 * em * en) * elem
        # Small-tile inefficiency: a matrix smaller than the tile
        # blocking leaves most of the block's threads without
        # output elements (the generic kernel cannot retile).
        active = np.maximum(1, np.round(t.threads * (em * en) / (t.blk_m * t.blk_n)))
        works = _merged_works(flops, bytes_, active, live)
        if dead:
            works.append(BlockWork(0.0, 0.0, active_threads=0, count=dead))
        return BlockWork.pack(works)

    def run_numerics(self, operands) -> None:
        live = [t for t in self.tasks if t.m and t.n and t.c is not None]
        if not live:
            return
        if grouping.reference_enabled():
            for t in live:
                a, b, c = (operand(operands, ref) for ref in (t.a, t.b, t.c))
                host_gemm(t.transa, t.transb, t.alpha, a, b, t.beta, c)
            return
        # Same (m, n, k) and flags -> shape-compatible operand stacks.
        buckets = grouping.partition_buckets(
            [(t.m, t.n, t.k, t.transa, t.transb, t.alpha, t.beta) for t in live]
        )
        for bucket in buckets:
            tasks = [live[p] for p in bucket.positions]
            t0 = tasks[0]
            # A lone task takes the stacked path too: its result must not
            # depend on whether the rest of the batch shares its shape.
            outs = [operand(operands, t.c) for t in tasks]
            c = np.stack(outs)
            grouping.bucket_gemm(
                np.stack([operand(operands, t.a) for t in tasks]),
                np.stack([operand(operands, t.b) for t in tasks]),
                c,
                t0.transa,
                t0.transb,
                t0.alpha,
                t0.beta,
            )
            for out, slab in zip(outs, c):
                out[...] = slab
