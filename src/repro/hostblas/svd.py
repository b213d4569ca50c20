"""One-sided Jacobi SVD (gesvj), the reference for the vbatched driver.

Hestenes' method: right plane rotations orthogonalize the columns of
``A`` in place (``A G_1 G_2 ... = U diag(s)``) while the rotations
accumulate into ``V``.  Singular values are the final column norms,
``U`` the normalized columns.  Real precisions only — the vbatched
driver mirrors that restriction.

:func:`jacobi_sweep` walks one matrix's column pairs row-cyclically and
is the reference.  :func:`stacked_jacobi_sweep` runs one sweep over a
stack of same-order matrices in round-robin tournament order: ``N - 1``
rounds of ``N / 2`` disjoint pairs, each round one batched rotation of
the whole stack, with the reference's per-pair skip test and formulas.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["jacobi_sweep", "round_robin_pairs", "stacked_jacobi_sweep", "gesvj"]


def jacobi_sweep(a: np.ndarray, v: np.ndarray, tol: float) -> int:
    """One cyclic sweep of one-sided Jacobi rotations, in place.

    Walks every column pair ``(p, q)``, ``p < q``, in row-cyclic order;
    a pair whose normalized off-diagonal inner product exceeds ``tol``
    gets a plane rotation applied to columns of both ``a`` and ``v``.
    Returns the number of rotations applied (0 means converged).
    """
    n = a.shape[1]
    rotations = 0
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = float(a[:, p] @ a[:, q])
            app = float(a[:, p] @ a[:, p])
            aqq = float(a[:, q] @ a[:, q])
            if abs(apq) <= tol * np.sqrt(app * aqq) or app == 0.0 or aqq == 0.0:
                continue
            zeta = (aqq - app) / (2.0 * apq)
            t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            if zeta == 0.0:
                t = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            rot_p = c * a[:, p] - s * a[:, q]
            rot_q = s * a[:, p] + c * a[:, q]
            a[:, p], a[:, q] = rot_p, rot_q
            rot_vp = c * v[:, p] - s * v[:, q]
            rot_vq = s * v[:, p] + c * v[:, q]
            v[:, p], v[:, q] = rot_vp, rot_vq
            rotations += 1
    return rotations


@lru_cache(maxsize=32)
def round_robin_pairs(n: int) -> np.ndarray:
    """Round-robin tournament schedule over ``n`` columns (``n`` even).

    Returns an ``(n - 1, n)`` array: row ``r`` lists round ``r``'s
    first columns ``p`` then their partners ``q``, so with ``h = n // 2``
    the pairs are ``(row[j], row[j + h])`` with ``row[j] < row[j + h]``.
    The rounds cover every pair exactly once and no column appears
    twice in a round, so a round's rotations commute.  Circle method:
    column ``n - 1`` stays put while the others move one seat per round.
    """
    if n < 2 or n % 2:
        raise ValueError(f"round-robin needs an even order >= 2, got {n}")
    h = n // 2
    seats = np.arange(n - 1)
    rounds = np.empty((n - 1, n), dtype=np.intp)
    for r in range(n - 1):
        ring = np.roll(seats, r)
        left = np.concatenate(([n - 1], ring[: h - 1]))
        right = ring[h - 1 :][::-1]
        rounds[r, :h] = np.minimum(left, right)
        rounds[r, h:] = np.maximum(left, right)
    rounds.flags.writeable = False
    return rounds


def stacked_jacobi_sweep(a: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """One round-robin one-sided Jacobi sweep over a stack of matrices.

    ``a`` is a ``(k, m, N)`` stack and ``v`` the ``(k, N, N)`` stack of
    rotation accumulators (columns are ``a[g, :, j]``), both updated in
    place; ``N`` must be even.  Each round applies, to every matrix at
    once, the rotations of its ``N / 2`` disjoint column pairs, with
    :func:`jacobi_sweep`'s skip test (``|apq| <= tol sqrt(app aqq)``, or
    a zero column) and its rotation formulas.  A skipped pair keeps its
    columns bit for bit, so zero-padded columns never rotate.  Every
    operation works on one matrix's own columns, so a matrix's result
    does not depend on what else is in the stack.  Returns each
    matrix's rotation count (0 means it was already converged).
    """
    k, m, n = a.shape
    h = n // 2
    rotations = np.zeros(k, dtype=np.int64)
    # One column-major work stack: row j of w[g] is column j of a[g]
    # followed by column j of v[g], so one gather and one rotation per
    # round serve both.  ``take`` gathers C-contiguously, so each dot
    # product reduces one contiguous row: its summation order is fixed
    # by ``m`` alone, whatever else is in the stack.
    w = np.concatenate((np.swapaxes(a, 1, 2), np.swapaxes(v, 1, 2)), axis=2)
    w_a = w[:, :, :m]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pq in round_robin_pairs(n):
            xa = w_a.take(pq, axis=1)
            apq = np.einsum("kij,kij->ki", xa[:, :h], xa[:, h:])
            norms = np.einsum("kij,kij->ki", xa, xa)
            app, aqq = norms[:, :h], norms[:, h:]
            skip = (np.abs(apq) <= tol * np.sqrt(app * aqq)) | (app == 0.0) | (aqq == 0.0)
            # Rotate only the pairs that need it; the rest keep their bits.
            g, j = np.nonzero(~skip)
            if g.size == 0:
                continue
            rotations += np.bincount(g, minlength=k)
            apq, app, aqq = apq[g, j], app[g, j], aqq[g, j]
            zeta = (aqq - app) / (2.0 * apq)
            t = np.where(
                zeta == 0.0,
                1.0,
                np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            p, q = pq[j], pq[j + h]
            xp, xq = w[g, p], w[g, q]
            c, s = c[:, None], s[:, None]
            w[g, p] = c * xp - s * xq
            w[g, q] = s * xp + c * xq
    np.swapaxes(a, 1, 2)[...] = w[:, :, :m]
    np.swapaxes(v, 1, 2)[...] = w[:, :, m:]
    return rotations


def gesvj(
    a: np.ndarray,
    tol: float = 1.0e-10,
    max_sweeps: int = 30,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD ``a = u @ diag(s) @ vt`` of a real ``m x n`` matrix, m >= n.

    Returns ``(u, s, vt, sweeps)`` with ``u`` of shape ``(m, n)``, the
    singular values descending, and ``sweeps`` the count actually spent
    (0 for an already-orthogonal column set).  ``a`` is not modified.
    """
    a = np.array(a, copy=True)
    if a.ndim != 2:
        raise ValueError(f"gesvj needs a 2-D matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValueError("gesvj supports real precisions only")
    if a.dtype.kind != "f":
        # Rotations written back into an integer array would truncate.
        # Non-numeric input fails this cast with a ValueError.
        a = a.astype(np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"gesvj needs m >= n, got {a.shape}")
    v = np.eye(n, dtype=a.dtype)
    sweeps = 0
    for _ in range(max_sweeps):
        if jacobi_sweep(a, v, tol) == 0:
            break
        sweeps += 1
    s = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    u = a[:, order]
    v = v[:, order]
    nonzero = s > 0
    u[:, nonzero] = u[:, nonzero] / s[nonzero]
    return u, s.astype(a.dtype), v.T.copy(), sweeps
