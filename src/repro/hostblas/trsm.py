"""Triangular solve with multiple right-hand sides (``trsm``).

Implemented as blocked forward/back substitution over ``nb``-wide row
blocks, so the algorithmic structure matches the device kernel's
(diagonal-block solve + gemm update) rather than calling a library
solver.

Two stacked variants solve a ``(k, n, n)`` stack of triangles against
a ``(k, n, r)`` stack of right-hand sides, with the same ``nb``-wide
blocking and one stacked ``matmul`` per off-diagonal update:
:func:`stacked_substitution` keeps :func:`trsm`'s substitution inside
the diagonal blocks (each slice bit for bit what :func:`trsm` gives
it), and :func:`stacked_trsm` solves each diagonal block with stacked
LAPACK (``np.linalg.solve``), equal to :func:`trsm` up to rounding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ArgumentError
from .gemm import apply_op

__all__ = ["trsm", "stacked_substitution", "stacked_trsm"]

_DEFAULT_NB = 32


def _solve_diag_block(a: np.ndarray, b: np.ndarray, lower: bool, unit: bool) -> None:
    """Unblocked in-place solve ``A X = B`` for one triangular diagonal block.

    Column-oriented substitution: each step eliminates one unknown row
    of ``X`` across all right-hand sides at once (vectorized over the
    RHS dimension).
    """
    n = a.shape[0]
    order = range(n) if lower else range(n - 1, -1, -1)
    for j in order:
        if not unit:
            b[j, :] /= a[j, j]
        if lower:
            if j + 1 < n:
                b[j + 1 :, :] -= np.outer(a[j + 1 :, j], b[j, :])
        else:
            if j > 0:
                b[:j, :] -= np.outer(a[:j, j], b[j, :])


def _left_solve(m: np.ndarray, b: np.ndarray, lower: bool, unit: bool, nb: int) -> None:
    """Blocked in-place solve ``M X = B`` with ``M`` triangular."""
    n = m.shape[0]
    if lower:
        for j0 in range(0, n, nb):
            j1 = min(j0 + nb, n)
            _solve_diag_block(m[j0:j1, j0:j1], b[j0:j1, :], True, unit)
            if j1 < n:
                b[j1:, :] -= m[j1:, j0:j1] @ b[j0:j1, :]
    else:
        blocks = list(range(0, n, nb))
        for j0 in reversed(blocks):
            j1 = min(j0 + nb, n)
            _solve_diag_block(m[j0:j1, j0:j1], b[j0:j1, :], False, unit)
            if j0 > 0:
                b[:j0, :] -= m[:j0, j0:j1] @ b[j0:j1, :]


def trsm(
    side: str,
    uplo: str,
    trans: str,
    diag: str,
    alpha: complex,
    a: np.ndarray,
    b: np.ndarray,
    nb: int = _DEFAULT_NB,
) -> np.ndarray:
    """Solve ``op(A) X = alpha B`` (left) or ``X op(A) = alpha B`` (right).

    ``B`` is overwritten with the solution ``X`` and returned.  ``A`` is
    triangular per ``uplo``/``diag``; only its relevant triangle is
    read.  ``nb`` is the substitution block size (algorithmic only —
    results are identical for any positive value).
    """
    s, u, t, d = side.lower(), uplo.lower(), trans.lower(), diag.lower()
    if s not in ("l", "r"):
        raise ArgumentError(1, f"side must be 'l' or 'r', got {side!r}")
    if u not in ("l", "u"):
        raise ArgumentError(2, f"uplo must be 'l' or 'u', got {uplo!r}")
    if t not in ("n", "t", "c"):
        raise ArgumentError(3, f"trans must be 'n', 't' or 'c', got {trans!r}")
    if d not in ("n", "u"):
        raise ArgumentError(4, f"diag must be 'n' or 'u', got {diag!r}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(6, f"A must be square, got shape {a.shape}")
    if b.ndim != 2:
        raise ArgumentError(7, f"B must be 2-D, got shape {b.shape}")
    if nb <= 0:
        raise ArgumentError(8, f"nb must be positive, got {nb}")

    na = a.shape[0]
    need = b.shape[0] if s == "l" else b.shape[1]
    if na != need:
        raise ArgumentError(6, f"A has order {na}, B needs {need}")

    if alpha != 1:
        b *= alpha
    if na == 0 or b.size == 0:
        return b

    unit = d == "u"
    # op(A) as an explicit (possibly conjugated) view; its effective
    # triangularity flips under transposition.
    m = apply_op(a, t)
    lower_eff = (u == "l") == (t == "n")

    if s == "l":
        _left_solve(m, b, lower_eff, unit, nb)
    else:
        # X op(A) = B  <=>  op(A)^T X^T = B^T; transposing M flips its
        # triangle once more.  B.T is a view, so the solve stays in place.
        _left_solve(m.T, b.T, not lower_eff, unit, nb)
    return b


def _check_stacks(t: np.ndarray, b: np.ndarray, nb: int) -> None:
    if t.ndim != 3 or t.shape[1] != t.shape[2]:
        raise ArgumentError(1, f"T must be a (k, n, n) stack, got shape {t.shape}")
    if b.ndim != 3 or b.shape[:2] != t.shape[:2]:
        raise ArgumentError(2, f"B must be a {t.shape[:2]} + (r,) stack, got shape {b.shape}")
    if nb <= 0:
        raise ArgumentError(5, f"nb must be positive, got {nb}")


def _blocks(n: int, nb: int, lower: bool) -> list[tuple[int, int]]:
    """The ``(j0, j1)`` diagonal blocks in substitution order."""
    blocks = [(j0, min(j0 + nb, n)) for j0 in range(0, n, nb)]
    return blocks if lower else blocks[::-1]


def _update_rest(t: np.ndarray, b: np.ndarray, j0: int, j1: int, lower: bool) -> None:
    """Eliminate the solved block rows ``j0:j1`` from the rest of ``B``."""
    if lower:
        if j1 < t.shape[1]:
            b[:, j1:] -= t[:, j1:, j0:j1] @ b[:, j0:j1]
    elif j0 > 0:
        b[:, :j0] -= t[:, :j0, j0:j1] @ b[:, j0:j1]


def stacked_substitution(
    t: np.ndarray, b: np.ndarray, lower: bool, unit: bool, nb: int = _DEFAULT_NB
) -> np.ndarray:
    """``T X = B`` per slice of a real stack, in place, as :func:`trsm` does.

    Runs :func:`trsm`'s blocked substitution (``side="l"``,
    ``trans="n"``) with each step's element operations broadcast over
    the stack, so every slice of ``B`` gets the bits :func:`trsm` gives
    it alone.  Only the ``lower`` (or upper) triangle of ``T`` is read;
    ``unit`` takes its diagonal as ones.  Real stacks only: a complex
    multiply may round differently in a differently strided numpy loop.
    """
    _check_stacks(t, b, nb)
    if np.iscomplexobj(t) or np.iscomplexobj(b):
        raise ValueError("stacked_substitution supports real precisions only")
    for j0, j1 in _blocks(t.shape[1], nb, lower):
        for j in range(j0, j1) if lower else range(j1 - 1, j0 - 1, -1):
            if not unit:
                b[:, j, :] /= t[:, j, j, None]
            if lower:
                b[:, j + 1 : j1, :] -= t[:, j + 1 : j1, j, None] * b[:, j, None, :]
            else:
                b[:, j0:j, :] -= t[:, j0:j, j, None] * b[:, j, None, :]
        _update_rest(t, b, j0, j1, lower)
    return b


def _solve_tiles(tiles: np.ndarray, rhs: np.ndarray, lower: bool, unit: bool) -> np.ndarray:
    """Stacked LAPACK solve of triangular ``tiles`` (other triangle zero).

    ``np.linalg.solve`` raises for the whole stack when one tile is
    singular to working precision, so that rare case solves tile by
    tile: a singular tile falls back to substitution (whose ``inf``/NaN
    the caller's info code flags), and every other tile still gets the
    bits the stacked call would give it.
    """
    try:
        return np.linalg.solve(tiles, rhs)
    except np.linalg.LinAlgError:
        out = np.empty(rhs.shape, dtype=np.result_type(tiles, rhs))
        for g, (tile, r) in enumerate(zip(tiles, rhs)):
            try:
                out[g] = np.linalg.solve(tile, r)
            except np.linalg.LinAlgError:
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[g] = trsm("l", "l" if lower else "u", "n", "u" if unit else "n",
                                  1.0, tile, r.astype(out.dtype))
        return out


@lru_cache(maxsize=256)
def _triangle(n: int, lower: bool, unit: bool) -> tuple[np.ndarray, np.ndarray | float]:
    """``(mask, fill)`` that make an ``n x n`` tile triangular with
    ``np.where(mask, tile, fill)``: the kept triangle (strict when
    ``unit``), and zero or the identity elsewhere."""
    mask = np.tri(n, k=-1 if unit else 0, dtype=bool)
    mask = mask if lower else mask.T
    mask.flags.writeable = False
    if not unit:
        return mask, 0.0
    eye = np.eye(n)
    eye.flags.writeable = False
    return mask, eye


def stacked_trsm(
    t: np.ndarray, b: np.ndarray, lower: bool, unit: bool, nb: int = _DEFAULT_NB
) -> np.ndarray:
    """``T X = B`` per slice of a stack, in place, through stacked LAPACK.

    Blocked like :func:`trsm` at ``nb`` columns: each diagonal block is
    solved by one stacked ``np.linalg.solve`` of its triangle, and the
    rows below (``lower``) or above it are updated with one stacked
    ``matmul``.  Every operation works slice by slice, so a slice's
    solution does not depend on the rest of the stack.  ``T`` may be a
    transposed or conjugated view (``lower`` names the triangle of ``T``
    itself); ``unit`` takes its diagonal as ones.
    """
    _check_stacks(t, b, nb)
    for j0, j1 in _blocks(t.shape[1], nb, lower):
        mask, fill = _triangle(j1 - j0, lower, unit)
        tiles = np.where(mask, t[:, j0:j1, j0:j1], fill).astype(t.dtype, copy=False)
        b[:, j0:j1] = _solve_tiles(tiles, b[:, j0:j1], lower, unit)
        _update_rest(t, b, j0, j1, lower)
    return b
