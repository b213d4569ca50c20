"""repro — variable-size batched matrix computation on a simulated GPU.

A from-scratch reproduction of Abdelfattah, Haidar, Tomov & Dongarra,
"On the Development of Variable Size Batched Computation for
Heterogeneous Parallel Architectures" (IPDPS-W 2016).

Quickstart::

    import numpy as np
    from repro import Device, VBatch, potrf_vbatched, make_spd_batch
    from repro.distributions import uniform_sizes

    device = Device()
    sizes = uniform_sizes(batch_count=200, max_size=128, seed=0)
    batch = VBatch.from_host(device, make_spd_batch(sizes, "d"))
    device.reset_clock()                  # time the factorization only
    result = potrf_vbatched(device, batch)
    print(f"{result.gflops:.1f} Gflop/s via the {result.approach} approach")

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from .types import Precision
from .errors import (
    AdmissionError,
    ArgumentError,
    BatchNumericalError,
    DeviceError,
    DeviceOutOfMemory,
    LaunchError,
    ReproError,
    ServingError,
    StreamError,
)
from .device import Device, DeviceGroup, DeviceSpec, K40C, PlanExecutor, Stream
from .cpu import CpuSpec, MklModel, SANDY_BRIDGE_2X8
from .core import (
    CrossoverPolicy,
    LaunchPlan,
    LaunchStats,
    OpOptions,
    OpResult,
    PlanCache,
    VBatch,
    potrf_batched_fixed,
    potrf_vbatched,
    potrf_vbatched_max,
)
from .extensions import (
    geqrf_vbatched,
    getrf_vbatched,
    getrs_vbatched,
    potrs_vbatched,
)
from .hostblas import make_spd, make_spd_batch
from .serving import BatchServer
from . import batched_blas, distributions, flops, multifrontal, serving

__version__ = "1.0.0"

__all__ = [
    "Precision",
    "ReproError",
    "AdmissionError",
    "ArgumentError",
    "BatchNumericalError",
    "DeviceError",
    "DeviceOutOfMemory",
    "LaunchError",
    "ServingError",
    "StreamError",
    "Device",
    "DeviceGroup",
    "DeviceSpec",
    "K40C",
    "PlanExecutor",
    "Stream",
    "LaunchPlan",
    "LaunchStats",
    "PlanCache",
    "CpuSpec",
    "MklModel",
    "SANDY_BRIDGE_2X8",
    "VBatch",
    "OpOptions",
    "OpResult",
    "CrossoverPolicy",
    "potrf_vbatched",
    "potrf_vbatched_max",
    "potrf_batched_fixed",
    "getrf_vbatched",
    "geqrf_vbatched",
    "getrs_vbatched",
    "potrs_vbatched",
    "make_spd",
    "make_spd_batch",
    "BatchServer",
    "batched_blas",
    "distributions",
    "multifrontal",
    "flops",
    "serving",
    "__version__",
]
