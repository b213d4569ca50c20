"""Vbatched LU, QR and triangular-solve extensions (paper §V).

"Future directions include the extension of this work to the LU and QR
factorizations ... where many of the BLAS kernels proposed here can be
reused out of the box."  These drivers demonstrate exactly that: the
vbatched gemm kernel carries every trailing update and block-reflector
application unchanged; only the thin panel kernels are new.  Every
factorization and factor+solve driver here takes the one
:class:`~repro.ops.options.OpOptions` and returns the one
:class:`~repro.ops.driver.OpResult` (op outputs such as ``taus`` and
``ipivs`` live in ``result.outputs``).
"""

from .getrf import getrf_vbatched, plan_getrf
from .geqrf import geqrf_vbatched, plan_geqrf
from .gesvj import gesvj_vbatched, plan_gesvj
from .solve import PotrsResult, getrs_vbatched, potrs_vbatched
from .drivers import gesv_vbatched, posv_vbatched

__all__ = [
    "getrf_vbatched",
    "plan_getrf",
    "geqrf_vbatched",
    "plan_geqrf",
    "gesvj_vbatched",
    "plan_gesvj",
    "PotrsResult",
    "potrs_vbatched",
    "getrs_vbatched",
    "posv_vbatched",
    "gesv_vbatched",
]
