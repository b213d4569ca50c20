"""Size-bucketed vectorized execution for the simulated kernel numerics.

The paper's central performance lever is grouping nearly-equal sizes so
one launch does dense, coherent work (implicit sorting + ETM, §III-D).
The simulated kernels used to execute their functional plane one matrix
at a time in Python loops — paying interpreter overhead per matrix,
which is exactly the overhead the paper's batching eliminates on real
hardware.  This module is the software analogue of that fix, following
the batched-GEMM grouping strategy of Jhurani & Mullowney
(arXiv:1304.7053) and the bucketing of Boukaram et al.
(arXiv:1707.05141):

* partition a launch's work items into buckets of identical ``(n, lda)``
  (items in one bucket are shape-compatible),
* materialize each bucket as a 3-D ndarray stack,
* run the whole bucket through *batched* NumPy primitives
  (``matmul``/``einsum`` over the leading batch axis, vectorized
  substitution sweeps),
* scatter the results back into the per-matrix device views.

Every kernel keeps its original per-matrix loop as a *reference* path
(:func:`reference_numerics` / ``set_reference_numerics``) so the
vectorized path can be differentially tested against it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SizeBucket",
    "partition_buckets",
    "grouped_first_seen",
    "reference_numerics",
    "set_reference_numerics",
    "reference_enabled",
    "batched_potf2",
    "batched_panel_trsm",
    "batched_lower_trtri",
    "bucket_fused_step",
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
    """Batched conjugate transpose of a 3-D stack."""
    return np.conj(np.swapaxes(stack, -1, -2))


def batched_potf2(t: np.ndarray) -> np.ndarray:
    """In-place batched unblocked lower Cholesky of a ``(B, n, n)`` stack.

    Mirrors :func:`repro.hostblas.potf2` semantics per matrix: returns
    an int64 info array (0 on success, 1-based failing pivot otherwise);
    a failed matrix's columns from the failing one onward are left
    untouched, and already-failed matrices stop receiving writes.
    """
    bsz, n = t.shape[0], t.shape[1]
    infos = np.zeros(bsz, dtype=np.int64)
    active = np.ones(bsz, dtype=bool)
    for j in range(n):
        row = t[:, j, :j]
        if j > 0:
            d = t[:, j, j].real - np.einsum("bk,bk->b", row, row.conj()).real
        else:
            d = t[:, j, j].real.copy()
        bad = active & ((d <= 0) | np.isnan(d))
        if bad.any():
            infos[bad] = j + 1
            active = active & ~bad
            if not active.any():
                break
        dj = np.sqrt(np.where(active, d, 1.0))
        t[active, j, j] = dj[active]
        if j + 1 < n:
            below = t[:, j + 1 :, :j]
            col = t[:, j + 1 :, j] - np.einsum("bmk,bk->bm", below, row.conj())
            t[active, j + 1 :, j] = (col / dj[:, None])[active]
    return infos


def batched_panel_trsm(l11: np.ndarray, b: np.ndarray, ok: np.ndarray | None = None) -> None:
    """Batched in-place solve ``X @ L^H = B`` (right/lower/conj-trans).

    ``l11`` is a ``(B, jb, jb)`` stack of lower-triangular factors and
    ``b`` the ``(B, m, jb)`` right-hand-side panels, overwritten with the
    solution — the batched analogue of
    ``trsm('r', 'l', 'c', 'n', 1.0, L, B)``.  Entries where ``ok`` is
    False (failed factorizations) are left untouched.
    """
    bsz, jb = l11.shape[0], l11.shape[1]
    if ok is None:
        ok = np.ones(bsz, dtype=bool)
    for j in range(jb):
        denom = np.where(ok, l11[:, j, j], 1.0).conj()
        rhs = b[:, :, j]
        if j > 0:
            rhs = rhs - np.einsum("bmi,bi->bm", b[:, :, :j], l11[:, j, :j].conj())
        b[ok, :, j] = (rhs / denom[:, None])[ok]


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


def bucket_fused_step(views: list[np.ndarray], j0: int, nb: int) -> np.ndarray:
    """Vectorized fused Algorithm-1 step over one same-size bucket.

    ``views`` are equal-order ``n x n`` matrix views; performs the
    panel-update + tile-factorize + panel-solve of
    :func:`repro.kernels.fused_potrf.fused_step_numerics` on the whole
    bucket at once and scatters the panel columns back.  Returns the
    per-matrix info array (0, or the 1-based global failing pivot).
    """
    n = views[0].shape[0]
    j1 = min(j0 + nb, n)
    jb = j1 - j0
    k = j0
    # One gather covers everything the step touches: rows j0:, cols :j1.
    s = np.stack([v[j0:, :j1] for v in views])
    tile = s[:, :jb, k:j1]
    if k > 0:
        hist = s[:, :jb, :k]
        upd = hist @ _conj_t(hist)
        rows, cols = np.tril_indices(jb)
        tile[:, rows, cols] -= upd[:, rows, cols]
        if j1 < n:
            s[:, jb:, k:j1] -= s[:, jb:, :k] @ _conj_t(hist)
    infos = batched_potf2(tile)
    ok = infos == 0
    if j1 < n and ok.any():
        batched_panel_trsm(tile, s[:, jb:, k:j1], ok=ok)
    for b, v in enumerate(views):
        v[j0:, j0:j1] = s[b, :, k:j1]
    return np.where(infos > 0, infos + j0, 0)


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
