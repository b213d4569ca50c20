"""The vbatched data structure (paper §III-A).

A vbatched routine receives *arrays* of matrix pointers, sizes and
leading dimensions, all resident in device memory — any arithmetic on
them (max reductions, per-step offsets) must happen in GPU kernels.
:class:`VBatch` models exactly that: per-matrix device allocations (one
accounting allocation when the batch is shape-only) plus
device-resident ``sizes``/``ldas``/``infos`` integer arrays.

The host-side driver is *not* supposed to peek at ``sizes_host`` for
control decisions; it goes through the auxiliary kernels in
:mod:`repro.kernels.aux` (that is what the "interface overhead is
negligible" experiment measures).  Simulated kernels, however, read
``sizes_host`` freely — they play the role of the hardware, which sees
device memory directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ArgumentError
from ..types import Precision, precision_info

__all__ = ["VBatch"]


def _alloc_each(alloc, items) -> list:
    """``[alloc(x) for x in items]``; if one fails (say, out of device
    memory), the arrays already made are freed before it re-raises."""
    arrays = []
    try:
        for x in items:
            arrays.append(alloc(x))
    except BaseException:
        for arr in arrays:
            arr.free()
        raise
    return arrays


class VBatch:
    """A batch of independent square matrices of (possibly) varying size.

    Every batch on a timing-only device, and a sharded run's payload-free
    shard, is *shape-only*: it holds the sizes, ldas, precision and the
    metadata arrays, but no per-matrix arrays (``matrices`` is empty).
    One never-materialized ``payload`` allocation charges the device the
    bytes per-matrix buffers would take, so capacity, ``peak_used`` and
    out-of-memory behave as they would with the buffers.
    """

    def __init__(self, device, matrices, sizes_host: np.ndarray, ldas_host: np.ndarray,
                 precision: Precision | str):
        # The batch owns ``matrices`` from here on: a constructor that
        # fails frees them and whatever it allocated, then re-raises.
        self.matrices = [] if matrices is None else list(matrices)
        self.payload = self.sizes_dev = self.ldas_dev = self.infos_dev = None
        try:
            if sizes_host.size != ldas_host.size:
                raise ArgumentError(2, "sizes/ldas length mismatch")
            if sizes_host.size == 0:
                raise ArgumentError(2, "batch must contain at least one matrix")
            if np.any(sizes_host < 0):
                raise ArgumentError(2, "matrix sizes cannot be negative")
            if np.any(ldas_host < np.maximum(sizes_host, 1)):
                raise ArgumentError(3, "each lda must be >= max(1, n)")
            self.device = device
            self.sizes_host = sizes_host.astype(np.int64)
            self.ldas_host = ldas_host.astype(np.int64)
            self.precision = Precision(precision)
            self.dtype = precision_info(self.precision).dtype
            if matrices is None:
                self.payload = device.alloc((int(self.sizes_host @ self.ldas_host),), self.dtype)
            # Device-resident metadata (charged against device memory).
            self.sizes_dev = device.alloc((sizes_host.size,), np.int64)
            self.ldas_dev = device.alloc((sizes_host.size,), np.int64)
            self.infos_dev = device.alloc((sizes_host.size,), np.int64)
        except BaseException:
            self.free()
            raise
        if device.execute_numerics:
            self.sizes_dev.data[...] = self.sizes_host
            self.ldas_dev.data[...] = self.ldas_host

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls,
        device,
        sizes: Sequence[int] | np.ndarray,
        precision: Precision | str = Precision.D,
        ldas: Sequence[int] | np.ndarray | None = None,
    ) -> VBatch:
        """Allocate an uninitialized batch on the device (no host data);
        shape-only on a timing-only device."""
        sizes = np.asarray(sizes, dtype=np.int64)
        ldas = np.maximum(sizes if ldas is None else np.asarray(ldas, dtype=np.int64), 1)
        if not device.execute_numerics:
            return cls(device, None, sizes, ldas, precision)
        dtype = precision_info(Precision(precision)).dtype
        mats = _alloc_each(
            lambda shape: device.alloc(shape, dtype),
            [(int(lda), int(n)) for n, lda in zip(sizes, ldas)],
        )
        return cls(device, mats, sizes, ldas, precision)

    @classmethod
    def shape_only(cls, device, sizes: np.ndarray, precision: Precision | str) -> VBatch:
        """A shape-only batch on any device, charged the host-to-device
        copy of each ``n x n`` matrix one by one, in batch order — the
        transfers :meth:`from_host` would charge."""
        batch = cls(device, None, sizes, np.maximum(sizes, 1), precision)
        elem = batch.dtype.itemsize
        for n in sizes.tolist():
            device._transfer(n * n * elem, "memcpy_h2d", None)
        return batch

    @classmethod
    def from_host(cls, device, host_matrices: Sequence[np.ndarray]) -> VBatch:
        """Upload host matrices (one PCIe-charged transfer per matrix);
        shape-only on a timing-only device, which never reads values."""
        if not host_matrices:
            raise ArgumentError(2, "batch must contain at least one matrix")
        dtypes = {m.dtype for m in host_matrices}
        if len(dtypes) != 1:
            raise ArgumentError(2, f"mixed dtypes in batch: {sorted(map(str, dtypes))}")
        for m in host_matrices:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ArgumentError(2, f"matrices must be square, got shape {m.shape}")
        sizes = np.array([m.shape[1] for m in host_matrices], dtype=np.int64)
        precision = Precision.from_dtype(dtypes.pop())
        if not device.execute_numerics:
            return cls.shape_only(device, sizes, precision)
        mats = _alloc_each(device.upload, host_matrices)
        return cls(device, mats, sizes, np.maximum(sizes, 1), precision)

    # ------------------------------------------------------------------
    # views and metadata
    # ------------------------------------------------------------------
    @property
    def batch_count(self) -> int:
        return self.sizes_host.size

    @property
    def max_size_host(self) -> int:
        """Host-side max — for test assertions, not for driver logic."""
        return int(self.sizes_host.max())

    @property
    def total_bytes(self) -> int:
        return int(self.sizes_host @ self.ldas_host) * self.dtype.itemsize

    def matrix_view(self, i: int) -> np.ndarray:
        """The live ``n x n`` view of matrix ``i`` inside its lda buffer."""
        n = int(self.sizes_host[i])
        return self.matrices[i].data[:n, :n]

    __getitem__ = matrix_view  # an operand container (repro.device.kernel.operand)

    def download_infos(self) -> np.ndarray:
        """Fetch the per-matrix LAPACK info array to the host."""
        return self.device.download(self.infos_dev)

    def download_matrices(self) -> list[np.ndarray]:
        """Fetch every factorized matrix back to the host."""
        out = []
        for i, m in enumerate(self.matrices):
            full = self.device.download(m)
            n = int(self.sizes_host[i])
            out.append(full[:n, :n])
        return out

    def free(self) -> None:
        """Release all device allocations owned by this batch."""
        for arr in (*self.matrices, self.payload, self.sizes_dev, self.ldas_dev, self.infos_dev):
            if arr is not None:
                arr.free()
