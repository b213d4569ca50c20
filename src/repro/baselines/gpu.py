"""GPU-side runners: the proposed vbatched routine and the padding baseline."""

from __future__ import annotations

import numpy as np

from .. import flops as _flops
from ..core.batch import VBatch
from ..core.interface import potrf_vbatched_max
from ..core.fixed import potrf_batched_fixed_run
from ..core.fused import fused_max_feasible_size
from ..core.padding import pad_to_fixed
from ..ops.options import OpOptions
from ..types import Precision
from .result import BaselineResult

__all__ = ["run_vbatched", "run_padding"]


def run_vbatched(
    device,
    batch: VBatch,
    max_n: int,
    options: OpOptions | None = None,
) -> BaselineResult:
    """The proposed routine, as a baseline-shaped runner."""
    res = potrf_vbatched_max(device, batch, max_n, options)
    return BaselineResult(
        label=f"magma-vbatched[{res.approach}]",
        elapsed=res.elapsed,
        total_flops=res.total_flops,
        gpu_timeline=device.timeline,
        extra={"approach": res.approach, **res.launch_stats},
    )


def run_padding(
    device,
    sizes: np.ndarray,
    max_n: int,
    precision: Precision | str = Precision.D,
    host_matrices: list[np.ndarray] | None = None,
) -> BaselineResult:
    """Fixed-size batched routine over zero-padded matrices.

    Useful flops are counted (Gflop/s stays comparable across series,
    per §IV-B), but the *time* covers factorizing every matrix at
    ``max_n`` — plus the allocation may simply exhaust device memory
    (:class:`DeviceOutOfMemory` propagates; Figs 8-9 truncate there).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    prec = Precision(precision)
    padded = pad_to_fixed(device, sizes, max_n, prec, host_matrices)
    approach = (
        "fused" if max_n <= fused_max_feasible_size(prec) else "separated"
    )
    t0 = device.synchronize()
    stats = potrf_batched_fixed_run(device, padded, max_n, approach=approach)
    elapsed = device.synchronize() - t0
    return BaselineResult(
        label="fixed-batched+padding",
        elapsed=elapsed,
        total_flops=_flops.batch_flops(sizes, "potrf", prec),
        gpu_timeline=device.timeline,
        extra={
            "padded_flops": sizes.size * _flops.potrf_flops(max_n, prec),
            "approach": stats["approach"],
        },
    )
