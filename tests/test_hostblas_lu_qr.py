"""Tests for the host LU, QR and Jacobi SVD references against SciPy,
and for their stacked variants against the per-matrix references."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from repro.errors import ArgumentError
from repro.hostblas import (
    apply_pivots,
    build_q,
    geqr2,
    geqrf,
    gesvj,
    getf2,
    getrf,
    jacobi_sweep,
    larft,
    round_robin_pairs,
    stacked_geqrf,
    stacked_jacobi_sweep,
    stacked_larft,
)


def random_matrix(m, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((m, n))
    return a.astype(dtype)


def lu_reconstruct(a_fact, ipiv, m, n):
    k = min(m, n)
    l = np.tril(a_fact[:, :k], -1)[:m, :]
    np.fill_diagonal(l, 1.0)
    l = l[:, :k]
    u = np.triu(a_fact[:k, :])
    pa = l @ u
    # Undo the permutation: apply pivots in reverse to recover A.
    return apply_pivots(pa, ipiv, forward=False)


class TestGetf2Getrf:
    @pytest.mark.parametrize("fn", ["getf2", "getrf"])
    @pytest.mark.parametrize("m,n", [(1, 1), (5, 5), (16, 16), (33, 33), (20, 12), (12, 20)])
    def test_reconstruction(self, fn, m, n):
        a = random_matrix(m, n, seed=m * 100 + n)
        work = a.copy()
        ipiv = np.zeros(min(m, n), dtype=np.int64)
        info = getf2(work, ipiv) if fn == "getf2" else getrf(work, ipiv, nb=8)
        assert info == 0
        np.testing.assert_allclose(lu_reconstruct(work, ipiv, m, n), a, atol=1e-10)

    def test_matches_scipy_lu(self):
        a = random_matrix(24, 24, seed=3)
        work = a.copy()
        ipiv = np.zeros(24, dtype=np.int64)
        assert getrf(work, ipiv, nb=7) == 0
        lu, piv = sla.lu_factor(a)
        np.testing.assert_allclose(np.abs(work), np.abs(lu), atol=1e-9)

    def test_pivoting_actually_pivots(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        ipiv = np.zeros(2, dtype=np.int64)
        assert getf2(a.copy(), ipiv) == 0
        assert ipiv[0] == 2  # row 2 chosen as first pivot

    def test_singular_info(self):
        a = np.zeros((3, 3))
        ipiv = np.zeros(3, dtype=np.int64)
        assert getf2(a, ipiv) == 1

    def test_blocked_equals_unblocked(self):
        a = random_matrix(40, 40, seed=9)
        w1, p1 = a.copy(), np.zeros(40, dtype=np.int64)
        w2, p2 = a.copy(), np.zeros(40, dtype=np.int64)
        getf2(w1, p1)
        getrf(w2, p2, nb=13)
        np.testing.assert_allclose(w1, w2, atol=1e-10)
        np.testing.assert_array_equal(p1, p2)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            getf2(np.eye(3), np.zeros(1, dtype=np.int64))
        with pytest.raises(ArgumentError):
            getrf(np.eye(3), np.zeros(3, dtype=np.int64), nb=0)

    def test_solve_via_factors(self):
        a = random_matrix(12, 12, seed=11)
        b = random_matrix(12, 2, seed=12)
        work = a.copy()
        ipiv = np.zeros(12, dtype=np.int64)
        getrf(work, ipiv, nb=4)
        y = apply_pivots(b.copy(), ipiv)
        from repro.hostblas import trsm

        trsm("l", "l", "n", "u", 1.0, work, y)
        trsm("l", "u", "n", "n", 1.0, work, y)
        np.testing.assert_allclose(a @ y, b, atol=1e-9)

    @given(n=st.integers(1, 24), nb=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_property_reconstruction(self, n, nb):
        a = random_matrix(n, n, seed=n * 13 + nb)
        work = a.copy()
        ipiv = np.zeros(n, dtype=np.int64)
        assert getrf(work, ipiv, nb=nb) == 0
        np.testing.assert_allclose(lu_reconstruct(work, ipiv, n, n), a, atol=1e-9)


class TestGeqr2Geqrf:
    @pytest.mark.parametrize("fn", ["geqr2", "geqrf"])
    @pytest.mark.parametrize("m,n", [(1, 1), (6, 6), (20, 20), (33, 17), (17, 9)])
    def test_qr_reconstruction(self, fn, m, n):
        a = random_matrix(m, n, seed=m * 7 + n)
        work = a.copy()
        tau = np.zeros(min(m, n))
        if fn == "geqr2":
            geqr2(work, tau)
        else:
            geqrf(work, tau, nb=5)
        q = build_q(work, tau)
        r = np.triu(work)[: min(m, n) if m < n else m, :]
        r_full = np.triu(work)
        np.testing.assert_allclose(q @ r_full, a, atol=1e-9)
        # Q orthogonal
        np.testing.assert_allclose(q.T @ q, np.eye(m), atol=1e-9)

    def test_r_matches_scipy_up_to_signs(self):
        a = random_matrix(15, 15, seed=20)
        work = a.copy()
        tau = np.zeros(15)
        geqrf(work, tau, nb=4)
        _, r_scipy = sla.qr(a)
        np.testing.assert_allclose(np.abs(np.diag(np.triu(work))), np.abs(np.diag(r_scipy)), atol=1e-9)

    def test_blocked_equals_unblocked(self):
        a = random_matrix(30, 30, seed=21)
        w1, t1 = a.copy(), np.zeros(30)
        w2, t2 = a.copy(), np.zeros(30)
        geqr2(w1, t1)
        geqrf(w2, t2, nb=8)
        np.testing.assert_allclose(w1, w2, atol=1e-9)
        np.testing.assert_allclose(t1, t2, atol=1e-10)

    def test_complex_qr(self):
        a = random_matrix(10, 10, np.complex128, seed=22)
        work = a.copy()
        tau = np.zeros(10, dtype=np.complex128)
        geqrf(work, tau, nb=3)
        q = build_q(work, tau)
        np.testing.assert_allclose(q @ np.triu(work), a, atol=1e-9)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(10), atol=1e-9)

    @pytest.mark.parametrize("m,n", [(1, 1), (9, 9), (16, 5), (12, 12)])
    def test_stacked_qr_matches_per_matrix_reference(self, m, n):
        panels = np.stack([random_matrix(m, n, seed=40 + g) for g in range(3)])
        packed, taus = stacked_geqrf(panels.copy())
        ts = stacked_larft(packed, taus)
        for g, a in enumerate(panels):
            work, tau = a.copy(), np.zeros(n)
            geqr2(work, tau)
            # Same reflector convention: LAPACK and geqr2 agree for real input.
            np.testing.assert_allclose(packed[g], work, atol=1e-12)
            np.testing.assert_allclose(taus[g], tau, atol=1e-12)
            np.testing.assert_allclose(ts[g], larft(packed[g], taus[g]), atol=1e-14)
            q = build_q(packed[g], taus[g])
            np.testing.assert_allclose(q[:, :n] @ np.triu(packed[g])[:n], a, atol=1e-12)

    def test_stacked_larft_handles_zero_reflectors(self):
        # A zero column gives tau = 0 (H = I); its T row and column vanish.
        a = random_matrix(8, 4, seed=44)
        a[:, 1] = 0.0
        packed, taus = stacked_geqrf(a[None].copy())
        assert taus[0, 1] == 0.0
        t = stacked_larft(packed, taus)[0]
        np.testing.assert_allclose(t, larft(packed[0], taus[0]), atol=1e-14)
        assert not t[1].any() and not t[:, 1].any()

    def test_stacked_geqrf_rejects_complex(self):
        with pytest.raises(ValueError):
            stacked_geqrf(np.zeros((1, 3, 3), dtype=np.complex128))

    def test_validation(self):
        with pytest.raises(ArgumentError):
            geqr2(np.eye(3), np.zeros(1))
        with pytest.raises(ArgumentError):
            geqrf(np.eye(3), np.zeros(3), nb=0)

    @given(m=st.integers(1, 20), n=st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_property_qr(self, m, n):
        a = random_matrix(m, n, seed=m * 31 + n)
        work = a.copy()
        tau = np.zeros(min(m, n))
        geqrf(work, tau, nb=6)
        q = build_q(work, tau)
        np.testing.assert_allclose(q @ np.triu(work), a, atol=1e-8)


def _stacked_gesvj(mats, order, sweeps=30):
    """Sweep zero-padded copies of ``mats`` to convergence together."""
    a = np.zeros((len(mats), order, order))
    v = np.zeros_like(a)
    for g, m in enumerate(mats):
        n = m.shape[0]
        a[g, :n, :n] = m
        v[g, :n, :n] = np.eye(n)
    for _ in range(sweeps):
        if not stacked_jacobi_sweep(a, v, 1e-10).any():
            break
    return a, v


class TestGesvj:
    def test_integer_input_is_promoted(self):
        # Rotations written back into an int array used to truncate,
        # returning s = [2, 0].
        u, s, vt, _ = gesvj(np.array([[3, 1], [1, 2]]))
        assert s.dtype == np.float64
        np.testing.assert_allclose(s, [(5 + np.sqrt(5)) / 2, (5 - np.sqrt(5)) / 2])
        np.testing.assert_allclose(u @ np.diag(s) @ vt, [[3, 1], [1, 2]], atol=1e-12)

    def test_rejects_non_numeric_input(self):
        with pytest.raises(ValueError):
            gesvj(np.array([["a", "b"], ["c", "d"]]))

    @pytest.mark.parametrize("n", [2, 8, 16, 24])
    def test_round_robin_covers_every_pair_once(self, n):
        rounds = round_robin_pairs(n)
        assert rounds.shape == (n - 1, n)
        p, q = rounds[:, : n // 2], rounds[:, n // 2 :]
        assert np.all(p < q)
        for row in rounds:
            assert sorted(row) == list(range(n))
        pairs = set(zip(p.ravel().tolist(), q.ravel().tolist()))
        assert len(pairs) == n * (n - 1) // 2

    def test_round_robin_needs_even_order(self):
        with pytest.raises(ValueError):
            round_robin_pairs(7)

    def test_stacked_sweeps_match_reference(self):
        mats = [random_matrix(n, n, seed=50 + n) for n in (3, 7, 8)]
        a, v = _stacked_gesvj(mats, 8)
        for g, m in enumerate(mats):
            n = m.shape[0]
            _, s_ref, _, _ = gesvj(m)
            s = np.sort(np.linalg.norm(a[g, :n, :n], axis=0))[::-1]
            np.testing.assert_allclose(s, s_ref, rtol=1e-12)
            np.testing.assert_allclose(v[g, :n, :n].T @ v[g, :n, :n], np.eye(n), atol=1e-13)
            np.testing.assert_allclose(a[g, :n, :n] @ v[g, :n, :n].T, m, atol=1e-12)
            # Padding never rotates into the matrix.
            assert not a[g, n:].any() and not a[g, :, n:].any() and not v[g, :, n:].any()

    def test_skipped_pairs_keep_their_bits(self):
        # Orthogonal columns (one a signed zero) need no rotation.
        a = np.diag([3.0, -0.0, 2.0, 1.0])[None].copy()
        a[0, 1, 1] = -0.0
        v = np.eye(4)[None].copy()
        before = a.copy()
        assert stacked_jacobi_sweep(a, v, 1e-10).tolist() == [0]
        assert a.tobytes() == before.tobytes()
        assert v.tobytes() == np.eye(4)[None].tobytes()

    def test_stacked_rotation_count_matches_reference_on_one_pair(self):
        m = random_matrix(2, 2, seed=60)
        a_ref, v_ref = m.copy(), np.eye(2)
        assert jacobi_sweep(a_ref, v_ref, 1e-10) == 1
        a, v = m[None].copy(), np.eye(2)[None].copy()
        assert stacked_jacobi_sweep(a, v, 1e-10).tolist() == [1]
        # One pair, one rotation: the same formulas give the same columns.
        np.testing.assert_allclose(a[0], a_ref, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(v[0], v_ref, rtol=1e-15, atol=1e-15)

    def test_non_finite_matrix_leaves_stack_mates_alone(self):
        mats = [random_matrix(6, 6, seed=70 + g) for g in range(3)]
        alone_a, alone_v = _stacked_gesvj(mats[:1], 8)
        poisoned = mats[1].copy()
        poisoned[2, 3] = np.nan
        mixed_a, mixed_v = _stacked_gesvj([mats[0], poisoned, mats[2]], 8)
        assert np.array_equal(mixed_a[0], alone_a[0])
        assert np.array_equal(mixed_v[0], alone_v[0])
        assert np.isnan(mixed_a[1]).any()
