"""Workspace memory pool over the device allocator.

Batched drivers allocate and free per-step workspaces (trsm inverse
blocks, pivot tables, metadata vectors) thousands of times per sweep;
MAGMA amortizes this with a pooled allocator, and so do we.  Freed
blocks are binned by rounded-up size and handed back on the next
matching request instead of going through the device allocator again.

The pool *retains* capacity: ``used`` on the underlying
:class:`~repro.device.memory.GlobalMemory` stays charged for pooled
blocks until :meth:`trim` or :meth:`close`.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .memory import DeviceArray, GlobalMemory

__all__ = ["WorkspacePool"]


def _bin_bytes(nbytes: int) -> int:
    """Round a request up to its pool bin (next power of two, >= 256 B)."""
    size = 256
    while size < nbytes:
        size <<= 1
    return size


class _LazyPoolView:
    """Deferred zeroed view into a bin's backing buffer.

    The buffer itself is created on first access, so timing-only sweeps
    that request workspaces but never read them pay no zero-fill.
    """

    __slots__ = ("pool", "handle", "count", "shape")

    def __init__(self, pool: "WorkspacePool", handle: int, count: int, shape):
        self.pool = pool
        self.handle = handle
        self.count = count
        self.shape = shape

    def __call__(self) -> np.ndarray:
        base = self.pool._bases.get(self.handle)
        if base is None:
            nelems, dtype = self.pool._bins[self.handle]
            # Fresh zeros: the view needs no additional clearing.
            base = np.zeros(nelems, dtype=dtype)
            self.pool._bases[self.handle] = base
            return base[: self.count].reshape(self.shape)
        view = base[: self.count].reshape(self.shape)
        view[...] = 0
        return view


class WorkspacePool:
    """Size-binned free-list allocator on top of device global memory."""

    def __init__(self, memory: GlobalMemory):
        self.memory = memory
        self._free: dict[tuple[int, np.dtype], list[DeviceArray]] = defaultdict(list)
        self._bins: dict[int, tuple[int, np.dtype]] = {}  # handle -> (elems, dtype)
        self._bases: dict[int, np.ndarray] = {}  # handle -> materialized buffer
        self.hits = 0
        self.misses = 0

    def get(self, shape, dtype) -> DeviceArray:
        """Return a zeroed array of ``shape``; reuses a pooled block when
        one of the right bin and dtype is available."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        count = int(math.prod(shape))
        nbytes = count * dtype.itemsize
        key = (_bin_bytes(max(nbytes, 1)), dtype)
        bucket = self._free[key]
        if bucket:
            self.hits += 1
            arr = bucket.pop()
        else:
            self.misses += 1
            # Allocate the whole bin so any same-bin request can reuse it.
            arr = self.memory.alloc((key[0] // dtype.itemsize,), dtype)
            self._bins[arr.handle] = (key[0] // dtype.itemsize, dtype)
        arr.set_producer(_LazyPoolView(self, arr.handle, count, shape), shape, dtype)
        return arr

    def release(self, arr: DeviceArray) -> None:
        """Return a block to the pool (it stays charged to the device)."""
        if arr.handle not in self._bins:
            raise ValueError("array was not allocated from this pool")
        dtype = self._bins[arr.handle][1]
        key = (_bin_bytes(max(arr.nbytes, 1)), dtype)
        self._free[key].append(arr)

    @property
    def pooled_blocks(self) -> int:
        return sum(len(v) for v in self._free.values())

    def trim(self) -> int:
        """Free every pooled block back to the device; returns the count."""
        n = 0
        for bucket in self._free.values():
            for arr in bucket:
                self._bins.pop(arr.handle, None)
                self._bases.pop(arr.handle, None)
                arr.free()
                n += 1
            bucket.clear()
        return n

    def close(self) -> None:
        self.trim()
