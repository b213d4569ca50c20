"""The one options type of every vbatched op.

Frozen (hashable — it rides in plan-cache keys).  Each op reads the
knobs its planner has and ignores the rest: the POTRF planners take
``etm``/``nb``/``syrk_mode``, the Jacobi SVD ``sweeps``/``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.optimizer import resolve_passes
from ..errors import ArgumentError

__all__ = ["OpOptions"]


@dataclass(frozen=True)
class OpOptions:
    """Knobs of the vbatched operation driver.

    ``approach`` is ``"auto"`` (per-op crossover policy), ``"fused"``
    (one whole-matrix launch per size window) or ``"separated"`` (the
    blocked panel sweep); the SVD has one Jacobi path and takes only
    ``"auto"``.  ``sorting`` enables implicit-sorting windows (fused) /
    sorted task order (separated).  ``sorting`` and ``panel_nb`` left
    ``None`` take the op's tuned value
    (:attr:`~repro.ops.registry.Operation.defaults`): POTRF sorts and
    uses 128-wide panels, the other ops run unsorted with 64-wide
    panels.  ``etm`` (early-termination mechanism), ``nb`` (inner
    blocking) and ``syrk_mode`` steer the POTRF planners;
    ``sweeps``/``tol`` drive the Jacobi SVD.  ``on_error`` selects
    LAPACK-style reporting: ``"info"`` returns per-matrix codes,
    ``"raise"`` additionally raises
    :class:`~repro.errors.BatchNumericalError` if any matrix failed
    (only meaningful when the device executes numerics).
    """

    approach: str = "auto"
    etm: str = "aggressive"
    sorting: bool | None = None
    nb: int | None = None
    panel_nb: int | None = None
    syrk_mode: str = "vbatched"
    crossover_size: int | None = None
    sweeps: int | None = None
    tol: float = 1.0e-10
    on_error: str = "info"
    #: Plan-optimizer level: "none", "all", a pass name, or a
    #: "+"-joined combination (see :mod:`repro.core.optimizer`).
    optimize: str = "none"

    def __post_init__(self):
        try:
            resolve_passes(self.optimize)
        except ValueError as exc:
            raise ArgumentError(9, str(exc)) from None
        if self.approach not in ("auto", "fused", "separated"):
            raise ArgumentError(1, f"bad approach {self.approach!r}")
        if self.etm not in ("classic", "aggressive"):
            raise ArgumentError(2, f"bad etm {self.etm!r} (use 'classic' or 'aggressive')")
        if self.panel_nb is not None and self.panel_nb <= 0:
            raise ArgumentError(4, f"panel_nb must be positive, got {self.panel_nb}")
        if self.sweeps is not None and self.sweeps <= 0:
            raise ArgumentError(5, f"sweeps must be positive, got {self.sweeps}")
        if self.syrk_mode not in ("vbatched", "streamed"):
            raise ArgumentError(
                6, f"bad syrk_mode {self.syrk_mode!r} (use 'vbatched' or 'streamed')"
            )
        if self.tol <= 0.0:
            raise ArgumentError(7, f"tol must be positive, got {self.tol}")
        if self.on_error not in ("info", "raise"):
            raise ArgumentError(8, f"bad on_error {self.on_error!r}")
