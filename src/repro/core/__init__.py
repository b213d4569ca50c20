"""The paper's contribution: variable-size batched (vbatched) routines.

Public entry points live in :mod:`repro.core.interface`; the planners
implementing Approach 1 (fused kernels, §III-D) and Approach 2
(separated vbatched BLAS, §III-E) are picked in :mod:`repro.core.driver`
and run, with the crossover policy (§IV-E), by the op driver
:mod:`repro.ops.driver`.
"""

from .batch import VBatch
from .interface import (
    potrf_vbatched,
    potrf_vbatched_max,
    potrf_batched_fixed,
    OpOptions,
    OpResult,
)
from .crossover import CrossoverPolicy
from .driver import LaunchStats
from .optimizer import optimize_plan, resolve_passes
from .plan import (
    AuxLaunch,
    Barrier,
    KernelLaunch,
    LaunchPlan,
    PlanBuilder,
    PlanCache,
)

__all__ = [
    "VBatch",
    "potrf_vbatched",
    "potrf_vbatched_max",
    "potrf_batched_fixed",
    "OpOptions",
    "OpResult",
    "CrossoverPolicy",
    "LaunchStats",
    "LaunchPlan",
    "PlanBuilder",
    "PlanCache",
    "KernelLaunch",
    "AuxLaunch",
    "Barrier",
    "optimize_plan",
    "resolve_passes",
]
