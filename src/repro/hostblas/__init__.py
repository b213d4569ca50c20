"""Reference dense linear algebra, written from scratch on NumPy.

These routines are the *functional ground truth* for the simulated
device kernels: every kernel's numerics are tested against them, and
they are themselves tested against ``scipy.linalg``.  They follow BLAS
calling conventions (uplo/side/trans/diag flags, in-place updates) so
the device kernels can mirror the real MAGMA decomposition exactly.
"""

from .gemm import gemm
from .syrk import syrk
from .trsm import stacked_substitution, stacked_trsm, trsm
from .trtri import trtri
from .potrf import potf2, potrf
from .getrf import apply_pivots, getf2, getrf, pivot_permutation, stacked_getf2
from .geqrf import (
    apply_q_transpose,
    build_q,
    geqr2,
    geqrf,
    larft,
    stacked_geqrf,
    stacked_larft,
)
from .svd import gesvj, jacobi_sweep, round_robin_pairs, stacked_jacobi_sweep
from .validate import (
    make_spd,
    make_spd_batch,
    cholesky_residual,
    lower_triangular_error,
)

__all__ = [
    "gemm",
    "syrk",
    "trsm",
    "stacked_substitution",
    "stacked_trsm",
    "trtri",
    "potf2",
    "potrf",
    "getf2",
    "getrf",
    "apply_pivots",
    "stacked_getf2",
    "pivot_permutation",
    "geqr2",
    "geqrf",
    "larft",
    "stacked_geqrf",
    "stacked_larft",
    "apply_q_transpose",
    "build_q",
    "gesvj",
    "jacobi_sweep",
    "round_robin_pairs",
    "stacked_jacobi_sweep",
    "make_spd",
    "make_spd_batch",
    "cholesky_residual",
    "lower_triangular_error",
]
