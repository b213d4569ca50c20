"""LU factorization with partial pivoting (``getf2``/``getrf``).

Host reference for the vbatched LU extension (paper §V future work).
Follows LAPACK semantics: ``A = P L U`` stored in place, ``ipiv`` holds
1-based pivot rows, ``info > 0`` flags an exactly-singular pivot.

:func:`stacked_getf2` runs :func:`getf2` over a stack of same-shape
real panels at once, bit for bit; :func:`pivot_permutation` turns a
pivot vector into the one row gather that :func:`apply_pivots`'
interchanges amount to.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError
from .trsm import trsm

__all__ = ["getf2", "getrf", "apply_pivots", "stacked_getf2", "pivot_permutation"]


def getf2(a: np.ndarray, ipiv: np.ndarray) -> int:
    """Unblocked right-looking LU with partial pivoting, in place."""
    m, n = a.shape
    if ipiv.shape[0] < min(m, n):
        raise ArgumentError(2, f"ipiv too short: {ipiv.shape[0]} < {min(m, n)}")
    info = 0
    for j in range(min(m, n)):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        ipiv[j] = p + 1  # LAPACK 1-based
        if a[p, j] == 0:
            if info == 0:
                info = j + 1
            continue
        if p != j:
            row = a[j].copy()
            a[j], a[p] = a[p], row
        if j + 1 < m:
            a[j + 1 :, j] /= a[j, j]
            if j + 1 < n:
                a[j + 1 :, j + 1 :] -= a[j + 1 :, j, None] * a[j, None, j + 1 :]
    return info


def getrf(a: np.ndarray, ipiv: np.ndarray, nb: int = 32) -> int:
    """Blocked right-looking LU with partial pivoting, in place."""
    if a.ndim != 2:
        raise ArgumentError(1, f"A must be 2-D, got shape {a.shape}")
    if nb <= 0:
        raise ArgumentError(3, f"nb must be positive, got {nb}")
    m, n = a.shape
    info = 0
    for j0 in range(0, min(m, n), nb):
        j1 = min(j0 + nb, min(m, n))
        jb = j1 - j0
        panel = a[j0:, j0:j1]
        panel_piv = np.zeros(jb, dtype=np.int64)
        panel_info = getf2(panel, panel_piv)
        if panel_info != 0 and info == 0:
            info = j0 + panel_info
        # Translate panel pivots to global rows and apply the swaps to
        # the columns outside the panel.
        for k in range(jb):
            ipiv[j0 + k] = j0 + panel_piv[k]
            p = j0 + int(panel_piv[k]) - 1
            row = j0 + k
            if p != row:
                a[[row, p], :j0] = a[[p, row], :j0]
                a[[row, p], j1:] = a[[p, row], j1:]
        if j1 < n:
            # U12 := L11^{-1} A12, then trailing update.
            trsm("l", "l", "n", "u", 1.0, a[j0:j1, j0:j1], a[j0:j1, j1:])
            if j1 < m:
                a[j1:, j1:] -= a[j1:, j0:j1] @ a[j0:j1, j1:]
    return info


def apply_pivots(b: np.ndarray, ipiv: np.ndarray, forward: bool = True) -> np.ndarray:
    """Apply LAPACK-style row interchanges to ``B`` (laswp)."""
    order = range(len(ipiv)) if forward else range(len(ipiv) - 1, -1, -1)
    for j in order:
        p = int(ipiv[j]) - 1
        if p != j:
            b[[j, p]] = b[[p, j]]
    return b


def stacked_getf2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`getf2` over a ``(k, m, n)`` stack of real panels, in place.

    Returns ``(ipivs, infos)``: the ``(k, min(m, n))`` 1-based pivot rows
    and the ``(k,)`` info codes.  Each step runs the reference's
    element operations (``argmax`` of ``abs``, row swap, ``/=`` by the
    pivot, ``a - l * u``) on the whole stack, so a panel whose result is
    finite gets the factor, pivots and info :func:`getf2` gives it
    alone, bit for bit.  A zero pivot is not skipped: below the
    diagonal it divides zeros by zero, so the panel comes out NaN, as
    does any panel holding NaN or Inf or overflowing.  Callers factor
    such panels again with :func:`getf2`.  (A zero pivot in the last
    step divides nothing; it stays finite and sets ``info``, as in
    :func:`getf2`.)  Complex panels belong to :func:`getf2`: a complex
    multiply or divide may round differently in a differently strided
    numpy loop.
    """
    if np.iscomplexobj(a):
        raise ValueError("stacked_getf2 supports real precisions only")
    k, m, n = a.shape
    steps = min(m, n)
    ipivs = np.empty((k, steps), dtype=np.int64)
    every = np.arange(k)
    with np.errstate(all="ignore"):  # non-finite panels are the caller's to redo
        for j in range(steps):
            below = a[:, j:]
            p = np.abs(below[:, :, j]).argmax(axis=1)
            ipivs[:, j] = j + p + 1
            if np.count_nonzero(p):
                swapped = below[every, p]
                below[every, p] = below[:, 0]
                below[:, 0] = swapped
            a[:, j + 1 :, j] /= a[:, j, j, None]
            a[:, j + 1 :, j + 1 :] -= a[:, j + 1 :, j, None] * a[:, j, None, j + 1 :]
    zero = np.diagonal(a, axis1=1, axis2=2) == 0
    return ipivs, np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, 0)


def pivot_permutation(ipiv: np.ndarray, n: int) -> np.ndarray:
    """Row order after :func:`apply_pivots`' forward interchanges.

    ``ipiv`` holds 1-based pivot rows on ``n`` rows; for any ``B`` with
    ``n`` rows, ``B[pivot_permutation(ipiv, n)]`` equals
    ``apply_pivots(B, ipiv)``.
    """
    perm = list(range(n))
    for j, p in enumerate(ipiv.tolist()):
        p -= 1
        perm[j], perm[p] = perm[p], perm[j]
    return np.array(perm, dtype=np.int64)
