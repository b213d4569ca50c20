"""Householder QR factorization (``geqr2``/``geqrf``).

Host reference for the vbatched QR extension (paper §V future work).
LAPACK storage: R in the upper triangle, the Householder vectors below
the diagonal (implicit unit leading entry), scalars in ``tau``.  The
blocked variant accumulates the compact-WY ``T`` factor (``larft``) and
applies panels with two gemms (``larfb``) — exactly the structure the
vbatched gemm kernel accelerates.

:func:`stacked_geqrf` and :func:`stacked_larft` factor a stack of
same-shape real panels through LAPACK (``np.linalg.qr``) and build
their ``T`` factors together; :func:`geqr2` and :func:`larft` stay the
per-matrix reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError

__all__ = [
    "geqr2",
    "geqrf",
    "larft",
    "stacked_geqrf",
    "stacked_larft",
    "apply_q_transpose",
    "build_q",
]


def _house(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Householder vector for ``x`` -> ``(v, tau, beta)`` with v[0] = 1."""
    alpha = x[0]
    normx = np.linalg.norm(x)
    if normx == 0 or (x.size == 1 and np.isrealobj(x)):
        return np.zeros_like(x), 0.0, float(np.real(alpha))
    sign = alpha / abs(alpha) if alpha != 0 else 1.0
    beta = -sign * normx
    v = x.copy()
    v[0] -= beta
    denom = v[0]
    if denom == 0:
        return np.zeros_like(x), 0.0, float(np.real(beta))
    v /= denom
    tau = (beta - alpha) / beta
    return v, complex(tau) if np.iscomplexobj(x) else float(np.real(tau)), beta


def geqr2(a: np.ndarray, tau: np.ndarray) -> None:
    """Unblocked Householder QR of ``A`` in place."""
    m, n = a.shape
    if tau.shape[0] < min(m, n):
        raise ArgumentError(2, f"tau too short: {tau.shape[0]} < {min(m, n)}")
    for j in range(min(m, n)):
        v, t, beta = _house(a[j:, j].copy())
        tau[j] = t
        if t != 0 and j + 1 < n:
            # A[j:, j+1:] -= t * v (v^H A[j:, j+1:])
            w = v.conj() @ a[j:, j + 1 :]
            a[j:, j + 1 :] -= np.outer(t * v, w)
        a[j, j] = beta
        if j + 1 <= m - 1:
            a[j + 1 :, j] = v[1:]


def larft(a_panel: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Compact-WY ``T`` for the panel's reflectors (forward, columnwise)."""
    m, k = a_panel.shape
    t = np.zeros((k, k), dtype=a_panel.dtype)
    for j in range(k):
        v_j = np.zeros(m, dtype=a_panel.dtype)
        v_j[j] = 1.0
        v_j[j + 1 :] = a_panel[j + 1 :, j]
        if j > 0:
            # T[:j, j] = -tau_j * T[:j, :j] @ (V[:, :j]^H v_j)
            vprev = np.tril(a_panel[:, :j], -1).copy()
            for i in range(j):
                vprev[i, i] = 1.0
            w = vprev.conj().T @ v_j
            t[:j, j] = -tau[j] * (t[:j, :j] @ w)
        t[j, j] = tau[j]
    return t


def stacked_geqrf(panels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK QR of a ``(k, m, n)`` stack of real panels, ``m >= n``.

    Returns ``(packed, taus)``: each panel in :func:`geqr2`'s storage (R
    on and above the diagonal, unit-lower Householder vectors below)
    and its ``n`` reflector scalars.  One ``np.linalg.qr`` call factors
    every panel with ``geqrf``; each panel's factor depends only on that
    panel.  Real only: for complex input LAPACK's ``larfg`` picks a
    real ``beta`` where :func:`geqr2`'s is complex, so the two R factors
    differ by row phases.
    """
    if np.iscomplexobj(panels):
        raise ValueError("stacked_geqrf supports real precisions only")
    h, taus = np.linalg.qr(panels, mode="raw")
    return np.swapaxes(h, 1, 2), taus


def stacked_larft(panels: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """:func:`larft` over a ``(k, m, n)`` stack of packed panels.

    Forms ``G = V^H V`` with one stacked matmul, then runs the ``n``-step
    column recurrence ``T[:j, j] = -tau_j T[:j, :j] G[:j, j]`` over the
    whole stack at once.  Returns the ``(k, n, n)`` ``T`` factors.
    """
    k, _, n = panels.shape
    v = np.tril(panels, -1)
    diag = np.arange(n)
    v[:, diag, diag] = 1.0
    g = np.swapaxes(v, 1, 2).conj() @ v
    t = np.zeros((k, n, n), dtype=panels.dtype)
    t[:, diag, diag] = taus
    for j in range(1, n):
        t[:, :j, j] = -taus[:, j, None] * (t[:, :j, :j] @ g[:, :j, j, None])[:, :, 0]
    return t


def _panel_v(a_panel: np.ndarray) -> np.ndarray:
    """Materialize the unit-lower V matrix from the packed panel."""
    m, k = a_panel.shape
    v = np.tril(a_panel, -1).astype(a_panel.dtype)
    for i in range(min(m, k)):
        v[i, i] = 1.0
    return v


def apply_q_transpose(a_panel: np.ndarray, t: np.ndarray, c: np.ndarray) -> None:
    """``C := (I - V T^H V^H)^H C = (I - V T V^H) ... `` apply ``Q^H`` (larfb).

    ``Q = I - V T V^H`` for the forward product of the panel's
    reflectors; ``Q^H C = C - V T^H (V^H C)``.
    """
    v = _panel_v(a_panel)
    w = v.conj().T @ c
    c -= v @ (t.conj().T @ w)


def geqr2_blocked_step(a: np.ndarray, j0: int, jb: int, tau: np.ndarray) -> np.ndarray:
    """Factor one panel in place and return its ``T`` factor."""
    panel = a[j0:, j0 : j0 + jb]
    geqr2(panel, tau[j0 : j0 + jb])
    return larft(panel, tau[j0 : j0 + jb])


def geqrf(a: np.ndarray, tau: np.ndarray, nb: int = 32) -> None:
    """Blocked Householder QR of ``A`` in place."""
    if a.ndim != 2:
        raise ArgumentError(1, f"A must be 2-D, got shape {a.shape}")
    if nb <= 0:
        raise ArgumentError(3, f"nb must be positive, got {nb}")
    m, n = a.shape
    for j0 in range(0, min(m, n), nb):
        jb = min(nb, min(m, n) - j0)
        t = geqr2_blocked_step(a, j0, jb, tau)
        if j0 + jb < n:
            apply_q_transpose(a[j0:, j0 : j0 + jb], t, a[j0:, j0 + jb :])


def build_q(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Materialize the full ``Q`` (orgqr-style, for testing)."""
    m, n = a.shape
    k = min(m, n)
    q = np.eye(m, dtype=a.dtype)
    for j in range(k - 1, -1, -1):
        v = np.zeros(m, dtype=a.dtype)
        v[j] = 1.0
        v[j + 1 :] = a[j + 1 :, j]
        q[j:, :] -= np.outer(tau[j] * v[j:], v[j:].conj() @ q[j:, :])
    return q
