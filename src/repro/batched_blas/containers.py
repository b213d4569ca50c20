"""Rectangular batch container for the vbatched BLAS interface.

:class:`~repro.core.batch.VBatch` is the factorization-oriented square
container; BLAS operands are general ``m_i x n_i`` rectangles, so the
BLAS level gets its own container with per-matrix row/column arrays on
the device (paper §III-A: "both the matrix sizes and the leading
dimensions need to be passed (as arrays of integers) ... all arrays
need to reside on the GPU memory").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ArgumentError
from ..types import Precision, precision_info

__all__ = ["MatrixBatch"]


class MatrixBatch:
    """A batch of independent rectangular matrices on the device."""

    def __init__(self, device, matrices, rows: np.ndarray, cols: np.ndarray):
        if len(matrices) == 0:
            raise ArgumentError(2, "batch must contain at least one matrix")
        if len(matrices) != rows.size or rows.size != cols.size:
            raise ArgumentError(2, "matrices/rows/cols length mismatch")
        if np.any(rows < 0) or np.any(cols < 0):
            raise ArgumentError(3, "matrix dimensions cannot be negative")
        self.device = device
        self.matrices = list(matrices)
        self.rows_host = rows.astype(np.int64)
        self.cols_host = cols.astype(np.int64)
        self.rows_dev = device.alloc((rows.size,), np.int64)
        self.cols_dev = device.alloc((cols.size,), np.int64)
        if device.execute_numerics:
            self.rows_dev.data[...] = self.rows_host
            self.cols_dev.data[...] = self.cols_host

    @classmethod
    def from_host(cls, device, host_matrices: Sequence[np.ndarray]) -> MatrixBatch:
        """Upload host matrices (PCIe-charged, one transfer each)."""
        if not host_matrices:
            raise ArgumentError(2, "batch must contain at least one matrix")
        dtypes = {m.dtype for m in host_matrices}
        if len(dtypes) != 1:
            raise ArgumentError(2, f"mixed dtypes in batch: {sorted(map(str, dtypes))}")
        for m in host_matrices:
            if m.ndim != 2:
                raise ArgumentError(2, f"matrices must be 2-D, got shape {m.shape}")
        mats = [device.upload(m) for m in host_matrices]
        rows = np.array([m.shape[0] for m in host_matrices], dtype=np.int64)
        cols = np.array([m.shape[1] for m in host_matrices], dtype=np.int64)
        return cls(device, mats, rows, cols)

    @classmethod
    def allocate(
        cls,
        device,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        precision: Precision | str = Precision.D,
    ) -> MatrixBatch:
        """Allocate an uninitialized batch (timing-only workloads)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size != cols.size:
            raise ArgumentError(3, "rows/cols length mismatch")
        info = precision_info(Precision(precision))
        mats = [
            device.alloc((max(int(r), 1), max(int(c), 1)), info.dtype)
            for r, c in zip(rows, cols)
        ]
        return cls(device, mats, rows, cols)

    @property
    def batch_count(self) -> int:
        return len(self.matrices)

    @property
    def precision(self) -> Precision:
        return self.matrices[0].precision

    def view(self, i: int) -> np.ndarray:
        """Live ``rows_i x cols_i`` view of matrix ``i``."""
        r, c = int(self.rows_host[i]), int(self.cols_host[i])
        return self.matrices[i].data[:r, :c]

    __getitem__ = view  # an operand container (repro.device.kernel.operand)

    def download(self) -> list[np.ndarray]:
        out = []
        for i, m in enumerate(self.matrices):
            full = self.device.download(m)
            out.append(full[: int(self.rows_host[i]), : int(self.cols_host[i])])
        return out

    def free(self) -> None:
        for m in self.matrices:
            m.free()
        self.rows_dev.free()
        self.cols_dev.free()
