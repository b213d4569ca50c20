"""Simulated device global memory: a capacity-enforcing allocator.

Matrix payloads live in ordinary NumPy arrays (that *is* the simulated
DRAM), but every allocation is charged against the device's capacity so
out-of-memory behaves like the real card — the padding baseline in
Figs 8-9 depends on genuinely running out.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import DeviceOutOfMemory
from ..types import Precision

__all__ = ["DeviceArray", "GlobalMemory"]


class DeviceArray:
    """A typed allocation in simulated device memory.

    Host code must not touch ``.data`` directly in "real" usage — the
    public API goes through :meth:`Device.memcpy_h2d` /
    :meth:`Device.memcpy_d2h` so PCIe cost is accounted.  Kernels (which
    execute "on the device") read and write ``.data`` freely.

    The payload is materialized lazily: capacity is charged at ``alloc``
    time, but the backing zeros are only created on first ``.data``
    access.  Timing-only sweeps (``execute_numerics=False``) never touch
    matrix values, so their allocations stay payload-free.
    """

    __slots__ = ("memory", "handle", "nbytes", "_data", "_producer", "_shape", "_dtype")

    def __init__(self, memory: "GlobalMemory", handle: int, shape: tuple[int, ...], dtype: np.dtype):
        self.memory = memory
        self.handle = handle
        self._data: np.ndarray | None = None
        self._producer = None
        self._shape = shape
        self._dtype = dtype
        self.nbytes = int(math.prod(shape)) * dtype.itemsize if shape else dtype.itemsize

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            if self._producer is not None:
                self._data = self._producer()
            else:
                self._data = np.zeros(self._shape, dtype=self._dtype)
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value

    @property
    def materialized(self) -> bool:
        """Whether the backing payload has been created yet."""
        return self._data is not None

    def set_producer(self, producer, shape: tuple[int, ...], dtype: np.dtype) -> None:
        """Defer the payload to ``producer()`` (pool views); resets ``.data``."""
        self._data = None
        self._producer = producer
        self._shape = shape
        self._dtype = dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape if self._data is None else self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype if self._data is None else self._data.dtype

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.dtype)

    def free(self) -> None:
        """Release the allocation (idempotent)."""
        self.memory._release(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceArray(handle={self.handle}, shape={self.shape}, dtype={self.dtype})"


class GlobalMemory:
    """Bump-accounted allocator with a hard capacity.

    Tracks ``used``, ``peak_used`` and live handles; allocation beyond
    capacity raises :class:`DeviceOutOfMemory` *before* any host memory
    is committed.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = int(capacity_bytes)
        self.used = 0
        self.peak_used = 0
        self._live: dict[int, int] = {}
        self._handles = itertools.count(1)

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def alloc(self, shape: tuple[int, ...] | int, dtype) -> DeviceArray:
        """Allocate a zero-initialized array on the device."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
        if nbytes < 0:
            raise ValueError(f"invalid shape {shape}")
        if self.used + nbytes > self.capacity:
            raise DeviceOutOfMemory(nbytes, self.free_bytes, self.capacity)
        handle = next(self._handles)
        self._live[handle] = nbytes
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)
        return DeviceArray(self, handle, shape, dtype)

    def _release(self, array: DeviceArray) -> None:
        nbytes = self._live.pop(array.handle, None)
        if nbytes is not None:
            self.used -= nbytes

    def free_all(self) -> None:
        """Release every live allocation (device reset)."""
        self._live.clear()
        self.used = 0

    @property
    def live_allocations(self) -> int:
        return len(self._live)
