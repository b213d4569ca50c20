"""Grouped, stacked execution for the simulated kernel numerics.

The paper's central performance lever is grouping nearly-equal sizes so
one launch does dense, coherent work (implicit sorting + ETM, §III-D).
The simulated kernels would otherwise execute their functional plane
one matrix at a time in Python, paying interpreter overhead per matrix
-- exactly the overhead the paper's batching eliminates on real
hardware.  This module is the software analogue of that fix.  Following
the batched-GEMM grouping of Jhurani & Mullowney (arXiv:1304.7053), work
is grouped by the shape of the operands a kernel actually touches, not
by the shape of the matrices they come from:

* :func:`stacked_potrf` factors whole matrices, one stacked LAPACK
  Cholesky per exact order.  The fused step kernel calls it at each
  matrix's final step: nothing reads a matrix between the launches of a
  fused plan, so the per-step arithmetic can be deferred to one call.
* :func:`stacked_potrf_step` advances a POTRF step (history update, tile
  factorization, panel solve) for every live matrix, for the panel and
  naive kernels whose neighbours read the intermediate state.  Within
  one step every matrix with ``n - j0 >= nb`` has the same ``nb x nb``
  tile and ``nb x j0`` history, whatever its order, so one group per
  tile order ``jb`` goes through stacked LAPACK (``matmul``,
  ``cholesky``, ``inv``) and only the ragged panels below the tiles are
  solved per matrix.
* :func:`partition_buckets` splits a launch into identical-key buckets
  for the gemm/syrk/trtri kernels, whose operands are whole-shape
  compatible; :func:`bucket_gemm`, :func:`bucket_syrk` and
  :func:`batched_lower_trtri` run one bucket as a 3-D stack.

Every operation of a POTRF factorization or step depends only on the
matrix it works on, never on what else shares its group, so a Cholesky
factor is bitwise identical alone, in any batch, or on any shard.
Every kernel keeps its original per-matrix loop as a *reference* path
(:func:`reference_numerics` / ``set_reference_numerics``,
``REPRO_REFERENCE_KERNELS=1``) so the grouped path can be
differentially tested against it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..hostblas import potf2 as host_potf2, trsm as host_trsm

__all__ = [
    "SizeBucket",
    "partition_buckets",
    "grouped_first_seen",
    "reference_numerics",
    "set_reference_numerics",
    "reference_enabled",
    "fused_step_numerics",
    "stacked_potrf",
    "stacked_potrf_step",
    "batched_lower_trtri",
    "bucket_gemm",
    "bucket_syrk",
]


# ----------------------------------------------------------------------
# reference-mode switch
# ----------------------------------------------------------------------
_reference = os.environ.get("REPRO_REFERENCE_KERNELS", "") not in ("", "0", "false")


def reference_enabled() -> bool:
    """True when kernels should run their per-matrix reference loops."""
    return _reference


def set_reference_numerics(flag: bool) -> bool:
    """Select the numerics path globally; returns the previous setting.

    ``True`` restores the original one-matrix-at-a-time loops (the
    differential-testing baseline); ``False`` (default) runs the
    size-bucketed vectorized path.  Also settable via the
    ``REPRO_REFERENCE_KERNELS=1`` environment variable at import time.
    """
    global _reference
    previous = _reference
    _reference = bool(flag)
    return previous


@contextmanager
def reference_numerics(flag: bool = True):
    """Context manager selecting the numerics path for the enclosed code.

    ``reference_numerics()`` runs the per-matrix reference loops;
    ``reference_numerics(False)`` forces the vectorized path regardless
    of the ambient setting.
    """
    previous = set_reference_numerics(flag)
    try:
        yield
    finally:
        set_reference_numerics(previous)


# ----------------------------------------------------------------------
# bucket partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizeBucket:
    """One same-shape bucket: a key plus positions into the launch list."""

    key: tuple
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


def partition_buckets(keys) -> list[SizeBucket]:
    """Partition launch positions into same-key buckets.

    ``keys`` is a sequence of hashables (one per work item, e.g.
    ``(n, lda)`` tuples); the result preserves first-seen key order and
    each bucket's positions preserve issue order, so the vectorized path
    visits work in the same order the reference loop would.
    """
    groups: dict[tuple, list[int]] = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return [
        SizeBucket(key, np.asarray(positions, dtype=np.int64))
        for key, positions in groups.items()
    ]


def grouped_first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique values and counts in first-seen order (vectorized).

    Equivalent to accumulating ``dict[value] += 1`` over ``values`` —
    the grouping every kernel's timing plane performs — but via
    ``np.unique``.  First-seen order matters: block groups are fed to
    the exact scheduler in issue order.
    """
    values = np.asarray(values)
    if values.size == 0:
        return values, np.zeros(0, dtype=np.int64)
    if values.size == 1:
        # One element is its own group; skips unique/sort/argsort (the
        # per-request serving path makes thousands of these calls).
        return values.reshape(1).copy(), np.ones(1, dtype=np.intp)
    uniq, first, counts = np.unique(values, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order], counts[order]


# ----------------------------------------------------------------------
# batched numeric primitives
# ----------------------------------------------------------------------
def _conj_t(stack: np.ndarray) -> np.ndarray:
    """Batched conjugate transpose of a 3-D stack.

    A real stack gets a plain transposed view, as :func:`repro.hostblas.syrk`
    does, so ``a @ _conj_t(a)`` takes the same BLAS path per slice.
    """
    return np.swapaxes(stack, -1, -2).conj()


def fused_step_numerics(a: np.ndarray, j0: int, nb: int) -> int:
    """Functional plane of one fused step on one matrix (lower Cholesky).

    Performs panel-update + tile-factorize + panel-solve for the panel
    starting at column ``j0``.  Returns the LAPACK info (0, or the
    1-based global index of the failing pivot).  This is the reference
    the POTRF step kernels loop over, and the fallback that
    :func:`stacked_potrf` and :func:`stacked_potrf_step` hand failed
    matrices to.
    """
    n = a.shape[0]
    j1 = min(j0 + nb, n)
    if j0 > 0:
        b = a[j0:j1, :j0]
        upd = b @ b.conj().T
        rows, cols = np.tril_indices(j1 - j0)
        a[j0:j1, j0:j1][rows, cols] -= upd[rows, cols]
        if j1 < n:
            a[j1:, j0:j1] -= a[j1:, :j0] @ b.conj().T
    info = host_potf2(a[j0:j1, j0:j1], "l")
    if info != 0:
        return j0 + info
    if j1 < n:
        host_trsm("r", "l", "c", "n", 1.0, a[j0:j1, j0:j1], a[j1:, j0:j1])
    return 0


def _stacked_cholesky(tiles: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a tile stack; a failed tile comes back NaN.

    Stacked ``np.linalg.cholesky`` raises for the whole stack when one
    tile is not positive definite, so that rare case re-factors tile by
    tile to find the culprits.
    """
    try:
        return np.linalg.cholesky(tiles)
    except np.linalg.LinAlgError:
        out = np.full_like(tiles, np.nan)
        for g, tile in enumerate(tiles):
            try:
                out[g] = np.linalg.cholesky(tile)
            except np.linalg.LinAlgError:
                pass
        return out


@lru_cache(maxsize=16)
def _tri(n: int) -> np.ndarray:
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _lower_mask(n: int) -> np.ndarray:
    """Boolean mask of the lower triangle (with diagonal) of an n x n tile.

    A corner of a cached power-of-two mask, so every order up to 1024
    shares eleven masks.
    """
    return _tri(1 << (n - 1).bit_length())[:n, :n]


def _replay_potrf(a: np.ndarray, nb: int) -> int:
    """The reference factorization: :func:`fused_step_numerics` step by
    step, stopping at the first failure; returns its info."""
    for j0 in range(0, a.shape[0], nb):
        info = fused_step_numerics(a, j0, nb)
        if info != 0:
            return info
    return 0


def stacked_potrf(views, nb: int) -> np.ndarray:
    """Whole lower Cholesky factorizations, one stacked LAPACK call per
    exact order.

    ``views`` are square matrix views, each factored in place as the
    ``nb``-wide steps of :func:`fused_step_numerics` would (equal up to
    rounding).  Only the lower triangle is written back.  A matrix whose
    factor is not finite (not positive definite; NaN or Inf in the
    input) is instead replayed through those steps from its untouched
    input, which yields the reference info code and partial state.
    Returns the per-view info array (0, or the 1-based failing pivot).
    """
    infos = np.zeros(len(views), dtype=np.int64)
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(views):
        groups.setdefault(v.shape[0], []).append(pos)
    for n, members in groups.items():
        if len(members) == 1:
            stack = views[members[0]][None]  # a view: no copy
        else:
            stack = np.stack([views[p] for p in members])
        factors = _stacked_cholesky(stack)
        ok = np.isfinite(factors).all(axis=(1, 2))
        lower = _lower_mask(n)
        for g, p in enumerate(members):
            if ok[g]:
                np.copyto(views[p], factors[g], where=lower)
            else:
                infos[p] = _replay_potrf(views[p], nb)
        del stack, factors  # one group's temporaries at a time
    return infos


def stacked_potrf_step(views, j0: int, nb: int) -> np.ndarray:
    """One fused POTRF step over many matrices, grouped by tile order.

    ``views`` are square matrix views of any orders ``n > j0``.  Each
    gets the step :func:`fused_step_numerics` performs (equal up to
    rounding), with the matrices sharing a tile order
    ``jb = min(nb, n - j0)`` run as one group:

    1. the history update ``tile -= hist @ hist^H`` as one stacked
       matmul, on a gather of just the ``jb x (j0 + jb)`` row block;
    2. one stacked ``np.linalg.cholesky`` of the group's tiles;
    3. per matrix, ``panel -= below_hist @ hist^H`` and then
       ``panel @ inv(L)^H`` with the stacked ``np.linalg.inv`` of the
       group's factors.

    Only the lower triangle of a tile is written back.  A matrix whose
    factor or solved panel is not finite (a failed pivot; NaN or Inf in
    the input) is left untouched and re-run through
    :func:`fused_step_numerics`, which yields the reference info code
    and partial state.  Returns the per-view info array (0, or the
    1-based global failing pivot).
    """
    infos = np.zeros(len(views), dtype=np.int64)
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(views):
        groups.setdefault(min(nb, v.shape[0] - j0), []).append(pos)
    for jb, members in groups.items():
        j1 = j0 + jb
        rows = np.stack([views[p][j0:j1, :j1] for p in members])
        hist_h = _conj_t(rows[:, :, :j0])
        tiles = rows[:, :, j0:]
        if j0 > 0:
            tiles -= rows[:, :, :j0] @ hist_h
        factors = _stacked_cholesky(tiles)
        ok = np.isfinite(factors).all(axis=(1, 2))
        with_panel = [g for g, p in enumerate(members) if ok[g] and views[p].shape[0] > j1]
        if with_panel:
            inv_h = _conj_t(np.linalg.inv(factors[with_panel]))
            for g, inv_hg in zip(with_panel, inv_h):
                below = views[members[g]][j1:, :j1]
                panel = below[:, j0:]
                if j0 > 0:
                    panel = panel - below[:, :j0] @ hist_h[g]
                panel = panel @ inv_hg
                if np.isfinite(panel).all():
                    below[:, j0:] = panel
                else:
                    ok[g] = False
        lower = _lower_mask(jb)
        for g, p in enumerate(members):
            if ok[g]:
                np.copyto(views[p][j0:j1, j0:j1], factors[g], where=lower)
            else:
                infos[p] = fused_step_numerics(views[p], j0, nb)
    return infos


def batched_lower_trtri(l: np.ndarray) -> np.ndarray:
    """Batched inverse of a ``(B, n, n)`` stack of lower triangles.

    Row-wise forward substitution on the identity, vectorized over the
    batch; returns a new stack whose strict upper triangle is zero.
    Raises :class:`ZeroDivisionError` on an exactly-zero diagonal, as
    the host reference does.
    """
    bsz, n = l.shape[0], l.shape[1]
    diag = np.diagonal(l, axis1=1, axis2=2)
    zeros = np.argwhere(diag == 0)
    if zeros.size:
        j = int(zeros[0, 1])
        raise ZeroDivisionError(
            f"trtri: A({j + 1},{j + 1}) is exactly zero (info={j + 1})"
        )
    inv = np.zeros_like(l)
    eye = np.eye(n, dtype=l.dtype)
    for i in range(n):
        rhs = eye[i] - np.einsum("bk,bkj->bj", l[:, i, :i], inv[:, :i, :])
        inv[:, i, :] = rhs / l[:, i, i, None]
    return np.tril(inv)


def _apply_op_stack(stack: np.ndarray, trans: str) -> np.ndarray:
    """Batched ``op(A)`` for a BLAS trans flag over a 3-D stack."""
    t = trans.lower()
    if t == "n":
        return stack
    if t == "t":
        return np.swapaxes(stack, -1, -2)
    return _conj_t(stack)


def bucket_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    transa: str,
    transb: str,
    alpha: complex,
    beta: complex,
) -> np.ndarray:
    """Batched ``C := alpha op(A) @ op(B) + beta C`` on stacked operands.

    ``c`` is updated in place and returned; semantics match
    :func:`repro.hostblas.gemm` per matrix (including the ``k == 0``
    scale-only and ``beta == 0`` overwrite-even-NaN cases).
    """
    opa = _apply_op_stack(a, transa)
    opb = _apply_op_stack(b, transb)
    if opa.shape[-1] == 0:
        c *= beta
        return c
    if beta == 0:
        c[...] = opa @ opb
        if alpha != 1:
            c *= alpha
    else:
        if beta != 1:
            c *= beta
        c += alpha * (opa @ opb)
    return c


def bucket_syrk(
    a: np.ndarray,
    c: np.ndarray,
    uplo: str,
    trans: str,
    alpha: complex,
    beta: complex,
) -> np.ndarray:
    """Batched rank-k update ``C := alpha op(A) op(A)^H + beta C``.

    Touches only the ``uplo`` triangle of each ``c`` slice, exactly as
    :func:`repro.hostblas.syrk` specifies; ``c`` is updated in place.
    """
    opa = _apply_op_stack(a, "n" if trans.lower() == "n" else trans)
    n = c.shape[-1]
    full = alpha * (opa @ _conj_t(opa))
    rows, cols = np.tril_indices(n) if uplo.lower() == "l" else np.triu_indices(n)
    if beta == 0:
        c[:, rows, cols] = full[:, rows, cols]
    else:
        c[:, rows, cols] = beta * c[:, rows, cols] + full[:, rows, cols]
    return c
