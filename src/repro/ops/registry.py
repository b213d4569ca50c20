"""The operation registry: one descriptor per vbatched routine.

Everything downstream of the drivers — serving, autotune, sharding,
trace reporting — used to hard-code POTRF.  The registry replaces that
with dispatch on an ``op`` tag: an :class:`Operation` bundles the
routine's flop model, input requirements, planner entry point and
fused/separated crossover default, and :func:`get_op` resolves tags.

Two kinds of entries coexist:

* **plannable** operations (``potrf``, ``geqrf``, ``getrf``,
  ``gesvj``) carry a ``planner`` and run through
  :func:`repro.ops.driver.run_op_vbatched`;
* **serving aliases** (``posv``, ``gesv``) describe solve requests the
  BatchServer accepts — they factor via their ``base`` operation and
  only differ in accounting metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .. import flops as _flops
from ..core.crossover import CrossoverPolicy
from ..errors import ArgumentError
from ..types import Precision

__all__ = ["Operation", "get_op", "list_ops", "register"]


@dataclass(frozen=True)
class Operation:
    """Descriptor for one vbatched routine.

    ``matrix_flops(n, precision)`` is the *useful* flop count of one
    ``n x n`` problem (the paper's Gflop/s numerator and the serving
    fleet's padded-waste denominator).  ``planner(device, batch, max_n,
    options, approach)`` emits the LaunchPlan; ``None`` marks a serving
    alias that factors via ``base``.  ``default_crossover`` feeds the
    fused/separated :class:`~repro.core.crossover.CrossoverPolicy` when
    ``options.approach == "auto"`` (``None`` = the potrf-tuned
    per-precision table).  ``defaults`` holds the op's tuned values of
    the :class:`~repro.ops.options.OpOptions` fields a caller leaves
    ``None``.
    """

    name: str
    doc: str
    matrix_flops: Callable[[int, object], float]
    planner: Callable | None = None
    base: str | None = None
    approaches: tuple = ("fused", "separated")
    default_crossover: int | None = None
    spd_input: bool = False
    real_only: bool = False
    needs_rhs: bool = False
    output_keys: tuple = field(default=())
    defaults: tuple = (("sorting", False), ("panel_nb", 64))

    def resolve_options(self, options):
        """``options`` with every field left ``None`` set to this op's
        tuned value (see :attr:`defaults`)."""
        unset = {name: value for name, value in self.defaults if getattr(options, name) is None}
        return replace(options, **unset) if unset else options

    def choose_approach(self, precision: Precision, max_n: int, options) -> str:
        """Resolve ``options.approach`` ("auto" -> crossover policy)."""
        approach = options.approach
        if approach != "auto":
            if approach not in self.approaches:
                raise ArgumentError(
                    1, f"op {self.name!r} has no {approach!r} approach"
                )
            return approach
        if len(self.approaches) == 1:
            return self.approaches[0]
        cross = options.crossover_size
        if cross is None:
            cross = self.default_crossover
        policy = CrossoverPolicy(precision, cross)
        return policy.choose(max_n)

    def batch_flops(self, sizes, precision) -> float:
        return float(sum(self.matrix_flops(int(n), precision) for n in sizes))


_REGISTRY: dict[str, Operation] = {}


def register(op: Operation) -> Operation:
    if op.name in _REGISTRY:
        raise ArgumentError(1, f"op {op.name!r} already registered")
    _REGISTRY[op.name] = op
    return op


def get_op(name: str) -> Operation:
    """Resolve an op tag; raises ``ArgumentError`` for unknown tags."""
    try:
        return _REGISTRY[str(name)]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ArgumentError(2, f"unknown op {name!r} (known: {known})") from None


def list_ops(*, plannable: bool | None = None) -> tuple:
    """Registered op names, optionally filtered to plannable ones."""
    names = sorted(_REGISTRY)
    if plannable is None:
        return tuple(names)
    return tuple(n for n in names if (_REGISTRY[n].planner is not None) == plannable)


# ---------------------------------------------------------------------------
# Builtin registrations.  Planners are imported lazily inside adapters so
# repro.ops stays importable before the extensions package.


def _plan_potrf(device, batch, max_n, options, approach):
    from ..core.driver import make_planner

    return make_planner(device, approach, options).plan(batch, max_n)


def _plan_geqrf(device, batch, max_n, options, approach):
    from ..extensions.geqrf import plan_geqrf

    return plan_geqrf(
        device, batch, max_n,
        panel_nb=options.panel_nb, approach=approach, sorting=options.sorting,
    )


def _plan_getrf(device, batch, max_n, options, approach):
    from ..extensions.getrf import plan_getrf

    return plan_getrf(
        device, batch, max_n,
        panel_nb=options.panel_nb, approach=approach, sorting=options.sorting,
    )


def _plan_gesvj(device, batch, max_n, options, approach):
    from ..extensions.gesvj import plan_gesvj

    return plan_gesvj(
        device, batch, max_n,
        sweeps=options.sweeps, tol=options.tol,
        sorting=options.sorting, panel_nb=options.panel_nb,
    )


register(
    Operation(
        name="potrf",
        doc="Cholesky factorization of SPD matrices (paper §IV)",
        matrix_flops=_flops.potrf_flops,
        planner=_plan_potrf,
        spd_input=True,
        # None -> the potrf-tuned DEFAULT_CROSSOVER table.
        default_crossover=None,
        # Implicit sorting and NB=128 panels: the paper's tuned planners.
        defaults=(("sorting", True), ("panel_nb", 128)),
    )
)

register(
    Operation(
        name="geqrf",
        doc="Householder QR factorization (paper §V)",
        matrix_flops=lambda n, p=None: _flops.geqrf_flops(n, n, p),
        planner=_plan_geqrf,
        # The whole-matrix geqr2 panel serializes ~3n column steps, so
        # fusion pays off only for small matrices; tuned on the
        # simulated K40c (benchmarks sweep, PR 8).
        default_crossover=96,
        output_keys=("taus",),
    )
)

register(
    Operation(
        name="getrf",
        doc="LU factorization with partial pivoting (paper §V)",
        matrix_flops=lambda n, p=None: _flops.getrf_flops(n, n, p),
        planner=_plan_getrf,
        default_crossover=96,
        output_keys=("ipivs",),
    )
)

register(
    Operation(
        name="gesvj",
        doc="One-sided Jacobi SVD (hierarchical-matrix compression)",
        matrix_flops=_flops.gesvj_flops,
        planner=_plan_gesvj,
        approaches=("jacobi",),
        real_only=True,
        output_keys=("singular_values", "vt", "sweeps_done"),
    )
)

register(
    Operation(
        name="posv",
        doc="SPD solve served as factor + triangular solves",
        # Useful flops: the factorization cost (solve flops excluded to
        # keep the serving accounting aligned with pre-registry fleets).
        matrix_flops=_flops.potrf_flops,
        base="potrf",
        spd_input=True,
        needs_rhs=True,
    )
)

register(
    Operation(
        name="gesv",
        doc="General solve served as pivoted LU + swaps + solves",
        matrix_flops=lambda n, p=None: _flops.getrf_flops(n, n, p),
        base="getrf",
        needs_rhs=True,
    )
)
