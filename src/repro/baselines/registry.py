"""Name -> runner map used by the figure harness.

Each entry builds its own fresh device/batch state from a
(sizes, precision) specification, so baselines never contaminate each
other's clocks or memory.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import VBatch
from ..device import Device
from ..ops.options import OpOptions
from ..types import Precision
from .cpu_mkl import run_cpu_multithreaded
from .cpu_percore import run_cpu_percore
from .gpu import run_padding, run_vbatched
from .hybrid import run_hybrid
from .result import BaselineResult

__all__ = ["BASELINES", "run_baseline"]


def _vbatched(sizes, precision, max_n, **kwargs):
    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, sizes, precision)
    device.reset_clock()
    return run_vbatched(device, batch, max_n, OpOptions(**kwargs))


def _padding(sizes, precision, max_n, **kwargs):
    device = Device(execute_numerics=False)
    return run_padding(device, sizes, max_n, precision)


def _hybrid(sizes, precision, max_n, **kwargs):
    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, sizes, precision)
    device.reset_clock()
    return run_hybrid(device, batch, precision)


def _cpu_mt(sizes, precision, max_n, **kwargs):
    return run_cpu_multithreaded(sizes, precision)


def _cpu_static(sizes, precision, max_n, **kwargs):
    return run_cpu_percore(sizes, precision, scheduling="static")


def _cpu_dynamic(sizes, precision, max_n, **kwargs):
    return run_cpu_percore(sizes, precision, scheduling="dynamic")


BASELINES = {
    "magma-vbatched": _vbatched,
    "magma-hybrid": _hybrid,
    "fixed-batched+padding": _padding,
    "cpu-mkl-mt": _cpu_mt,
    "cpu-1core-static": _cpu_static,
    "cpu-1core-dynamic": _cpu_dynamic,
}


def run_baseline(
    name: str,
    sizes: np.ndarray,
    precision: Precision | str,
    max_n: int | None = None,
    **kwargs,
) -> BaselineResult:
    """Run a named baseline on a size sample (timing-only device)."""
    try:
        runner = BASELINES[name]
    except KeyError:
        known = ", ".join(sorted(BASELINES))
        raise ValueError(f"unknown baseline {name!r}; known: {known}") from None
    sizes = np.asarray(sizes, dtype=np.int64)
    if max_n is None:
        max_n = int(sizes.max())
    return runner(sizes, Precision(precision), max_n, **kwargs)
