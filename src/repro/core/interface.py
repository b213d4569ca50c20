"""Public vbatched API (paper §III-A).

Two interfaces, exactly as proposed:

* :func:`potrf_vbatched_max` — the expert interface: the caller supplies
  the maximum dimension across the batch, "recommended when the user has
  such information so that computing the maximums is waived";
* :func:`potrf_vbatched` — the LAPACK-like interface: the maximum is
  computed by a GPU reduction kernel, whose overhead "in most cases ...
  is negligible" (measured by ``benchmarks/test_aux_overhead.py``).

Plus :func:`potrf_batched_fixed` for the classic fixed-size case.

Both vbatched entry points run through the one op driver,
:func:`repro.ops.driver.run_op_vbatched`, under the ``"potrf"`` tag:
they take the :class:`~repro.ops.options.OpOptions` every op takes and
return its :class:`~repro.ops.driver.OpResult`.
"""

from __future__ import annotations

from ..errors import ArgumentError
from ..kernels.aux import compute_max_size
from ..ops.driver import OpResult, run_op_vbatched
from ..ops.options import OpOptions
from .batch import VBatch
from .fixed import potrf_batched_fixed_run

__all__ = [
    "potrf_vbatched",
    "potrf_vbatched_max",
    "potrf_batched_fixed",
    "OpOptions",
    "OpResult",
]


def potrf_vbatched_max(
    device,
    batch: VBatch,
    max_n: int,
    options: OpOptions | None = None,
    *,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
) -> OpResult:
    """Cholesky-factorize a variable-size batch, trusting ``max_n``.

    Every matrix in ``batch`` is overwritten with its lower Cholesky
    factor (strictly-upper triangles untouched).  Per-matrix LAPACK
    ``info`` codes are collected in the result.

    ``devices`` shards the batch across a
    :class:`~repro.device.topology.DeviceGroup` (or device sequence) or
    places it on a :class:`~repro.device.hetero.HeteroGroup`;
    ``plan_cache`` (a :class:`~repro.core.plan.PlanCache`) re-serves
    launch plans across calls with identical size vectors; ``optimize``
    selects the :mod:`~repro.core.optimizer` pass level (overriding
    ``options.optimize``).
    """
    if max_n <= 0:
        raise ArgumentError(3, f"max_n must be positive, got {max_n}")
    return run_op_vbatched(
        device,
        batch,
        max_n,
        "potrf",
        options,
        devices=devices,
        plan_cache=plan_cache,
        optimize=optimize,
    )


def potrf_vbatched(
    device,
    batch: VBatch,
    options: OpOptions | None = None,
    *,
    devices=None,
    plan_cache=None,
    optimize: str | None = None,
) -> OpResult:
    """LAPACK-like interface: the max size is reduced on the device.

    Wraps :func:`potrf_vbatched_max` after a GPU max-reduction kernel
    plus an 8-byte download — both on the simulated clock, so the
    interface overhead the paper discusses is measurable here.
    """
    max_n = compute_max_size(device, batch)
    if max_n <= 0:
        raise ArgumentError(2, "batch contains only empty matrices")
    return potrf_vbatched_max(
        device,
        batch,
        max_n,
        options,
        devices=devices,
        plan_cache=plan_cache,
        optimize=optimize,
    )


def potrf_batched_fixed(
    device,
    batch: VBatch,
    n: int,
    approach: str = "fused",
    nb: int | None = None,
    panel_nb: int = 128,
) -> dict:
    """Fixed-size batched Cholesky (the pre-existing MAGMA routine)."""
    return potrf_batched_fixed_run(device, batch, n, approach, nb, panel_nb)
