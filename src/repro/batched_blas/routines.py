"""The vbatched BLAS entry points.

Every routine follows the paper's two-interface scheme implicitly: the
maxima the kernels need are taken from the host dimension mirrors
(matching the expert interface; the metadata also lives on the device
per §III-A).  Dimension conformance is validated per matrix with
LAPACK-style argument indices.  Each routine names its operands
``(slot, i, ALL, ALL)`` against its own containers, which it binds at
launch: ``(a, b, c)``, ``(a, c)``, ``(a, b)`` or ``(a,)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import flops as _flops
from ..device.kernel import ALL, BlockWork, Kernel, LaunchConfig, operand
from ..errors import ArgumentError
from ..hostblas import trsm as host_trsm, trtri as host_trtri
from ..kernels.gemm import GemmTask, VbatchedGemmKernel
from ..kernels.syrk import SyrkTask, VbatchedSyrkKernel
from ..types import Precision, precision_info
from .containers import MatrixBatch

__all__ = ["gemm_vbatched", "syrk_vbatched", "trsm_vbatched", "trtri_vbatched"]


@dataclass
class BlasRunResult:
    """Timing record of one vbatched BLAS call."""

    elapsed: float
    total_flops: float

    @property
    def gflops(self) -> float:
        return _flops.gflops(self.total_flops, self.elapsed)


def _op_dims(rows, cols, trans):
    return (cols, rows) if trans in ("t", "c") else (rows, cols)


# ----------------------------------------------------------------------
def gemm_vbatched(
    device,
    transa: str,
    transb: str,
    alpha: complex,
    a: MatrixBatch,
    b: MatrixBatch,
    beta: complex,
    c: MatrixBatch,
) -> BlasRunResult:
    """``C_i := alpha op(A_i) op(B_i) + beta C_i`` for every i."""
    ta, tb = transa.lower(), transb.lower()
    if ta not in ("n", "t", "c"):
        raise ArgumentError(2, f"transa must be n/t/c, got {transa!r}")
    if tb not in ("n", "t", "c"):
        raise ArgumentError(3, f"transb must be n/t/c, got {transb!r}")
    if not (a.batch_count == b.batch_count == c.batch_count):
        raise ArgumentError(5, "batch counts disagree")

    tasks = []
    total = 0.0
    for i in range(a.batch_count):
        am, ak = _op_dims(int(a.rows_host[i]), int(a.cols_host[i]), ta)
        bk, bn = _op_dims(int(b.rows_host[i]), int(b.cols_host[i]), tb)
        cm, cn = int(c.rows_host[i]), int(c.cols_host[i])
        if ak != bk:
            raise ArgumentError(6, f"matrix {i}: inner dims {ak} vs {bk}")
        if (cm, cn) != (am, bn):
            raise ArgumentError(8, f"matrix {i}: C is {cm}x{cn}, expected {am}x{bn}")
        total += _flops.gemm_flops(am, bn, ak, a.precision)
        tasks.append(
            GemmTask(
                m=am, n=bn, k=ak, a=(0, i, ALL, ALL), b=(1, i, ALL, ALL), c=(2, i, ALL, ALL),
                transa=ta, transb=tb, alpha=alpha, beta=beta,
            )
        )
    t0 = device.synchronize()
    device.launch(VbatchedGemmKernel(tasks, a.precision), operands=(a, b, c))
    return BlasRunResult(device.synchronize() - t0, total)


# ----------------------------------------------------------------------
def syrk_vbatched(
    device,
    uplo: str,
    trans: str,
    alpha: complex,
    a: MatrixBatch,
    beta: complex,
    c: MatrixBatch,
) -> BlasRunResult:
    """``C_i := alpha op(A_i) op(A_i)^H + beta C_i`` on one triangle."""
    u, t = uplo.lower(), trans.lower()
    if u not in ("l", "u"):
        raise ArgumentError(2, f"uplo must be l/u, got {uplo!r}")
    if t not in ("n", "t", "c"):
        raise ArgumentError(3, f"trans must be n/t/c, got {trans!r}")
    if a.batch_count != c.batch_count:
        raise ArgumentError(5, "batch counts disagree")

    tasks = []
    total = 0.0
    for i in range(a.batch_count):
        an, ak = _op_dims(int(a.rows_host[i]), int(a.cols_host[i]), t)
        cn = int(c.rows_host[i])
        if int(c.cols_host[i]) != cn:
            raise ArgumentError(7, f"matrix {i}: C must be square")
        if an != cn:
            raise ArgumentError(5, f"matrix {i}: op(A) has {an} rows, C order {cn}")
        total += _flops.syrk_flops(cn, ak, a.precision)
        tasks.append(
            SyrkTask(
                n=cn, k=ak, a=(0, i, ALL, ALL), c=(1, i, ALL, ALL),
                alpha=alpha, beta=beta, uplo=u, trans=t,
            )
        )
    t0 = device.synchronize()
    device.launch(VbatchedSyrkKernel(tasks, a.precision), operands=(a, c))
    return BlasRunResult(device.synchronize() - t0, total)


# ----------------------------------------------------------------------
class _FlexTrsmKernel(Kernel):
    """General vbatched trsm: one thread block per matrix.

    Cost follows the diagonal-inversion + gemm decomposition at 32-wide
    blocks collapsed into one launch; numerics delegate to the host
    reference with the full flag set.
    """

    compute_efficiency = 0.70

    def __init__(self, items, precision, side, uplo, trans, diag, alpha, max_rows):
        super().__init__()
        self.items = items  # (na, m, n, a_ref, b_ref)
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.side, self.uplo, self.trans, self.diag = side, uplo, trans, diag
        self.alpha = alpha
        self.max_rows = max(1, int(max_rows))
        self.name = f"vbatched_trsm_flex:{self._info.name}"

    @property
    def precision(self):
        return self._prec

    def launch_config(self) -> LaunchConfig:
        threads = min(1024, -(-self.max_rows // 32) * 32)
        return LaunchConfig(threads, min(48 * 1024, threads * 8 * self._info.bytes_per_element), ilp=2.0)

    def cost_key(self) -> tuple:
        dims = np.fromiter(
            (d for na, m, n, _, _ in self.items for d in (na, m, n)),
            dtype=np.int64, count=3 * len(self.items),
        )
        return (self.side, dims.tobytes())

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        works = []
        for na, m, n, _, _ in self.items:
            if m == 0 or n == 0:
                works.append(BlockWork(0.0, 0.0, active_threads=0))
                continue
            works.append(
                BlockWork(
                    flops=_flops.trsm_flops(m, n, "left" if self.side == "l" else "right") * w,
                    bytes=(na * na + 2.0 * m * n) * elem,
                    serial_iters=2.0 * -(-na // 32) * 32 / 32,
                    active_threads=min(1024, max(m, 1)),
                )
            )
        return BlockWork.pack(works)

    def run_numerics(self, operands) -> None:
        for na, m, n, a_ref, b_ref in self.items:
            if m == 0 or n == 0:
                continue
            host_trsm(
                self.side, self.uplo, self.trans, self.diag, self.alpha,
                operand(operands, a_ref), operand(operands, b_ref),
            )


def trsm_vbatched(
    device,
    side: str,
    uplo: str,
    trans: str,
    diag: str,
    alpha: complex,
    a: MatrixBatch,
    b: MatrixBatch,
) -> BlasRunResult:
    """``op(A_i) X_i = alpha B_i`` (left) or ``X_i op(A_i) = alpha B_i``."""
    s, u, t, d = side.lower(), uplo.lower(), trans.lower(), diag.lower()
    if s not in ("l", "r"):
        raise ArgumentError(2, f"side must be l/r, got {side!r}")
    if u not in ("l", "u"):
        raise ArgumentError(3, f"uplo must be l/u, got {uplo!r}")
    if t not in ("n", "t", "c"):
        raise ArgumentError(4, f"trans must be n/t/c, got {trans!r}")
    if d not in ("n", "u"):
        raise ArgumentError(5, f"diag must be n/u, got {diag!r}")
    if a.batch_count != b.batch_count:
        raise ArgumentError(7, "batch counts disagree")

    items = []
    total = 0.0
    max_rows = 1
    for i in range(a.batch_count):
        na = int(a.rows_host[i])
        if int(a.cols_host[i]) != na:
            raise ArgumentError(7, f"matrix {i}: A must be square")
        m, n = int(b.rows_host[i]), int(b.cols_host[i])
        need = m if s == "l" else n
        if na != need and m and n:
            raise ArgumentError(7, f"matrix {i}: A order {na}, B needs {need}")
        total += _flops.trsm_flops(m, n, "left" if s == "l" else "right", a.precision)
        max_rows = max(max_rows, m)
        items.append((na, m, n, (0, i, ALL, ALL), (1, i, ALL, ALL)))
    t0 = device.synchronize()
    device.launch(
        _FlexTrsmKernel(items, a.precision, s, u, t, d, alpha, max_rows), operands=(a, b)
    )
    return BlasRunResult(device.synchronize() - t0, total)


# ----------------------------------------------------------------------
class _FullTrtriKernel(Kernel):
    """Whole-triangle inversion per matrix, one thread block each."""

    compute_efficiency = 0.45

    def __init__(self, items, precision, uplo, diag, max_rows):
        super().__init__()
        self.items = items  # (n, ref)
        self._prec = Precision(precision)
        self._info = precision_info(self._prec)
        self.uplo, self.diag = uplo, diag
        self.max_rows = max(1, int(max_rows))
        self.name = f"vbatched_trtri_full:{self._info.name}"

    @property
    def precision(self):
        return self._prec

    def launch_config(self) -> LaunchConfig:
        threads = min(1024, -(-self.max_rows // 32) * 32)
        return LaunchConfig(threads, min(48 * 1024, threads * 8 * self._info.bytes_per_element), ilp=2.0)

    def cost_key(self) -> tuple:
        orders = np.fromiter((n for n, _ in self.items), dtype=np.int64, count=len(self.items))
        return (orders.tobytes(),)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        works = []
        for n, _ in self.items:
            if n == 0:
                works.append(BlockWork(0.0, 0.0, active_threads=0))
                continue
            works.append(
                BlockWork(
                    flops=_flops.trtri_flops(n) * w,
                    bytes=2.0 * n * n * elem,
                    serial_iters=2.0 * n,
                    active_threads=min(n, 1024),
                )
            )
        return BlockWork.pack(works)

    def run_numerics(self, operands) -> None:
        for n, ref in self.items:
            if n == 0:
                continue
            host_trtri(self.uplo, self.diag, operand(operands, ref))


def trtri_vbatched(device, uplo: str, diag: str, a: MatrixBatch) -> BlasRunResult:
    """Invert every matrix's ``uplo`` triangle in place."""
    u, d = uplo.lower(), diag.lower()
    if u not in ("l", "u"):
        raise ArgumentError(2, f"uplo must be l/u, got {uplo!r}")
    if d not in ("n", "u"):
        raise ArgumentError(3, f"diag must be n/u, got {diag!r}")
    items = []
    total = 0.0
    max_rows = 1
    for i in range(a.batch_count):
        n = int(a.rows_host[i])
        if int(a.cols_host[i]) != n:
            raise ArgumentError(4, f"matrix {i}: must be square, got "
                                   f"{a.rows_host[i]}x{a.cols_host[i]}")
        total += _flops.trtri_flops(n, a.precision)
        max_rows = max(max_rows, n)
        items.append((n, (0, i, ALL, ALL)))
    t0 = device.synchronize()
    device.launch(_FullTrtriKernel(items, a.precision, u, d, max_rows), operands=(a,))
    return BlasRunResult(device.synchronize() - t0, total)
