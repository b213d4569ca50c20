"""Fixed-size batched Cholesky (the pre-existing MAGMA functionality).

The paper's starting point (§III-D, Fig 4): all matrices share one
size.  Both approaches apply — the fused kernel per step, or the
separated BLAS sequence — and this module is what the padding baseline
and the Fig 4 fusion study run on.  Implementation-wise a fixed batch
is just a :class:`VBatch` with constant sizes, so the vbatched drivers
are reused directly; what differs is that no ETM ever fires (every
block always has work) and no size metadata varies.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError
from .batch import VBatch
from .blas_steps import BlasStepDriver
from .fused import FusedDriver, fused_max_feasible_size
from .plan import LaunchPlan
from .separated import SeparatedDriver

__all__ = ["plan_potrf_fixed", "potrf_batched_fixed_run"]


def plan_potrf_fixed(
    device,
    batch: VBatch,
    n: int,
    approach: str = "fused",
    nb: int | None = None,
    panel_nb: int = 128,
) -> LaunchPlan:
    """Plan a fixed-size batch with the chosen approach.

    Raises :class:`ArgumentError` if the batch is not actually
    fixed-size, or if the fused approach is requested beyond its
    feasibility bound.
    """
    if not np.all(batch.sizes_host == n):
        raise ArgumentError(3, "batch is not fixed-size; use potrf_vbatched")
    if approach == "fused":
        if n > fused_max_feasible_size(batch.precision, nb):
            raise ArgumentError(
                4,
                f"fused approach infeasible for n={n} "
                f"(max {fused_max_feasible_size(batch.precision, nb)}); use 'separated'",
            )
        planner = FusedDriver(device, etm="classic", sorting=False, nb=nb)
    elif approach == "separated":
        planner = SeparatedDriver(device, panel_nb=panel_nb)
    elif approach == "blas":
        # The un-fused generic batched-BLAS baseline of Fig 4.
        planner = BlasStepDriver(device, nb=nb or 32)
    else:
        raise ArgumentError(
            4, f"approach must be 'fused', 'separated' or 'blas', got {approach!r}"
        )
    plan = planner.plan(batch, n)
    plan.meta["fixed_n"] = n
    plan.meta["approach"] = approach
    return plan


def potrf_batched_fixed_run(
    device,
    batch: VBatch,
    n: int,
    approach: str = "fused",
    nb: int | None = None,
    panel_nb: int = 128,
) -> dict:
    """Factorize a fixed-size batch with the chosen approach.

    Returns a stats dict (``approach``, launch counters).
    """
    from ..device.executor import PlanExecutor

    plan = plan_potrf_fixed(device, batch, n, approach, nb, panel_nb)
    try:
        PlanExecutor(device).execute(plan, batch)
    finally:
        plan.close()
    stats = plan.run_stats
    if approach == "fused":
        return {"approach": "fused", "launches": stats.fused_launches, "steps": stats.steps}
    if approach == "separated":
        return {
            "approach": "separated",
            "launches": stats.potf2_launches + stats.trsm_launches + stats.syrk_launches,
            "steps": stats.steps,
        }
    return {"approach": "blas", "launches": stats.total_launches, "steps": stats.steps}
