"""Auxiliary metadata kernels (paper §III-A, §III-F).

Because every size/lda array lives in device memory, "simple arithmetic
operations on the matrix size need to be performed on the whole array"
by GPU kernels: the max reduction behind the LAPACK-style interface,
and the per-step size arithmetic the factorization driver uses to tell
``trsm``/``syrk`` which matrices are already finished.  These kernels
are integer-only and tiny; the experiments confirm their overhead is
negligible, which is the paper's argument for the simpler interface.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..types import Precision
from ..device.kernel import BlockWork, Kernel, LaunchConfig

__all__ = ["IMaxReduceKernel", "StepSizesKernel", "compute_max_size"]

_THREADS = 256
_STEP_CONFIG = LaunchConfig(threads_per_block=_THREADS)
_COUNT = struct.Struct("<q")


class IMaxReduceKernel(Kernel):
    """Tree max-reduction over a device int array into a device scalar."""

    name = "aux:imax"

    def __init__(self, values_dev, result_dev):
        super().__init__()
        self.values_dev = values_dev
        self.result_dev = result_dev

    @property
    def precision(self):
        # Integer kernels are costed on the FP32 pipelines.
        return Precision.S

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig(threads_per_block=_THREADS, shared_mem_per_block=_THREADS * 8)

    def cost_key(self) -> tuple:
        return (math.prod(self.values_dev.shape),)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        n = int(np.prod(self.values_dev.shape))
        blocks = max(1, -(-n // _THREADS))
        per_block = min(n, _THREADS)
        return BlockWork.pack([
            BlockWork(
                flops=float(per_block),  # one compare per element
                bytes=per_block * 8.0 + 8.0,
                active_threads=per_block,
                count=blocks,
            )
        ])

    def run_numerics(self, operands) -> None:
        self.result_dev.data[0] = self.values_dev.data.max()


class StepSizesKernel(Kernel):
    """Per-step size arithmetic for the factorization driver.

    Computes, for the panel starting at column ``offset``:

    * ``remaining[i] = max(0, sizes[i] - offset)`` — rows left,
    * ``panel[i] = clip(remaining[i], 0, nb)`` — current panel width,

    writing both to device arrays, plus device scalars for the max
    remaining size and the count of still-active matrices (what the
    driver downloads to shape the next launches).  ``sizes`` is the
    batch's size vector: the plan's shape, which the kernel reads as
    the hardware reads the device copy.
    """

    name = "aux:step_sizes"

    def __init__(self, sizes: np.ndarray, offset: int, nb: int, remaining_dev, panel_dev,
                 stats_dev, *, memo_key: tuple | None = None):
        super().__init__()
        if offset < 0 or nb <= 0:
            raise ValueError(f"invalid offset={offset} nb={nb}")
        self.sizes = sizes
        self.offset = offset
        self.nb = nb
        self.remaining_dev = remaining_dev
        self.panel_dev = panel_dev
        self.stats_dev = stats_dev
        # Every step of a plan costs the same: its planner keys the
        # first step and hands the key to the others.
        self._memo_key = memo_key

    @property
    def precision(self):
        return Precision.S

    def launch_config(self) -> LaunchConfig:
        return _STEP_CONFIG

    def cost_key(self) -> bytes:
        return _COUNT.pack(len(self.sizes))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        n = len(self.sizes)
        blocks = max(1, -(-n // _THREADS))
        per_block = min(n, _THREADS)
        return BlockWork.pack([
            BlockWork(
                flops=4.0 * per_block,  # subtract, two clips, a reduce step
                bytes=per_block * 8.0 * 3 + 16.0,
                active_threads=per_block,
                count=blocks,
            )
        ])

    def run_numerics(self, operands) -> None:
        remaining = np.maximum(0, self.sizes - self.offset)
        self.remaining_dev.data[...] = remaining
        self.panel_dev.data[...] = np.minimum(remaining, self.nb)
        self.stats_dev.data[0] = remaining.max()
        self.stats_dev.data[1] = np.count_nonzero(remaining)


def compute_max_size(device, batch) -> int:
    """LAPACK-style interface path: max size via a device reduction.

    Launches the reduction kernel and downloads the 8-byte scalar —
    both costs land on the simulated clock, which is exactly the
    "overhead of computing the maximum" the paper measures.
    """
    result = device.alloc((1,), np.int64)
    device.launch(IMaxReduceKernel(batch.sizes_dev, result))
    if device.execute_numerics:
        value = int(device.download(result)[0])
    else:
        # Timing-only mode: charge the same transfer, read host mirror.
        device.download(result)
        value = int(batch.sizes_host.max())
    result.free()
    return value
