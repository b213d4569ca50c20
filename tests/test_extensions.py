"""Tests for the vbatched LU/QR/potrs extensions (paper §V)."""

import numpy as np
import pytest

from repro import Device, OpOptions, VBatch, make_spd_batch, potrf_vbatched
from repro.errors import ArgumentError
from repro.extensions import geqrf_vbatched, getrf_vbatched, potrs_vbatched
from repro.hostblas import apply_pivots, build_q


def random_square_batch(sizes, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    mats = []
    for n in sizes:
        a = rng.standard_normal((n, n))
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.standard_normal((n, n))
        mats.append((a + n * np.eye(n)).astype(dtype))
    return mats


SIZES = [5, 33, 80, 128, 17, 1]


class TestGetrfVbatched:
    def test_factorization_correct(self):
        dev = Device()
        mats = random_square_batch(SIZES, seed=1)
        b = VBatch.from_host(dev, mats)
        res = getrf_vbatched(dev, b)
        assert res.failed_count == 0
        assert res.gflops > 0
        outs = b.download_matrices()
        for i, (a, f) in enumerate(zip(mats, outs)):
            n = a.shape[0]
            l = np.tril(f, -1) + np.eye(n)
            u = np.triu(f)
            recon = apply_pivots(l @ u, res.outputs["ipivs"][i, :n], forward=False)
            np.testing.assert_allclose(recon, a, atol=1e-9)

    def test_pivots_within_bounds(self):
        dev = Device()
        mats = random_square_batch([40, 12], seed=2)
        b = VBatch.from_host(dev, mats)
        res = getrf_vbatched(dev, b)
        for i, n in enumerate([40, 12]):
            piv = res.outputs["ipivs"][i, :n]
            assert np.all(piv >= 1) and np.all(piv <= n)

    def test_pivoting_handles_zero_leading_entry(self):
        dev = Device()
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        b = VBatch.from_host(dev, [a])
        res = getrf_vbatched(dev, b)
        assert res.failed_count == 0
        assert res.outputs["ipivs"][0, 0] == 2

    def test_launch_structure(self):
        dev = Device(execute_numerics=False)
        b = VBatch.allocate(dev, [200] * 4, "d")
        res = getrf_vbatched(dev, b, max_n=200, panel_nb=64)
        assert res.launch_stats["steps"] == 4  # ceil(200/64)
        assert res.launch_stats.panel_launches == 4
        assert res.launch_stats.swap_launches == 4
        assert res.launch_stats.gemm_launches >= 3

    def test_reuses_vbatched_gemm(self, launch_log):
        """The §V claim: the BLAS kernels are reused out of the box."""
        dev = Device(execute_numerics=False)
        log = launch_log(dev)
        b = VBatch.allocate(dev, [150] * 3, "d")
        getrf_vbatched(dev, b, max_n=150)
        names = {rec.kernel_name for rec in log.launches}
        assert any("lu_update" in n for n in names)

    def test_validation(self):
        dev = Device()
        b = VBatch.from_host(dev, random_square_batch([8]))
        with pytest.raises(ArgumentError):
            getrf_vbatched(dev, b, panel_nb=0)
        with pytest.raises(ArgumentError):
            getrf_vbatched(dev, b, max_n=4)


class TestGeqrfVbatched:
    def test_factorization_correct(self):
        dev = Device()
        mats = random_square_batch(SIZES, seed=3)
        b = VBatch.from_host(dev, mats)
        res = geqrf_vbatched(dev, b)
        assert res.gflops > 0
        outs = b.download_matrices()
        for i, (a, f) in enumerate(zip(mats, outs)):
            n = a.shape[0]
            q = build_q(f, res.outputs["taus"][i, :n])
            np.testing.assert_allclose(q @ np.triu(f), a, atol=1e-8)
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-9)

    def test_larfb_as_two_gemms_per_step(self):
        dev = Device(execute_numerics=False)
        b = VBatch.allocate(dev, [150] * 3, "d")
        res = geqrf_vbatched(dev, b, max_n=150, panel_nb=64)
        # Every step except the last (no trailing columns) applies the
        # block reflector with exactly two gemm launches.
        assert res.launch_stats.gemm_launches == 2 * (res.launch_stats["steps"] - 1)

    def test_validation(self):
        dev = Device()
        b = VBatch.from_host(dev, random_square_batch([8]))
        with pytest.raises(ArgumentError):
            geqrf_vbatched(dev, b, panel_nb=-1)


class TestPotrsVbatched:
    def test_solves_against_original(self):
        dev = Device()
        sizes = [6, 40, 90]
        mats = make_spd_batch(sizes, "d", seed=4)
        b = VBatch.from_host(dev, mats)
        potrf_vbatched(dev, b, OpOptions(on_error="raise"))
        rng = np.random.default_rng(5)
        rhs = [rng.standard_normal((n, 2)) for n in sizes]
        originals = [r.copy() for r in rhs]
        # Solve against the factors stored in the batch (in the device
        # arrays); RHS views alias host arrays for verification.
        views = []
        for i, r in enumerate(rhs):
            n = sizes[i]
            views.append(r)
        res = potrs_vbatched(dev, b, views)
        assert res.gflops > 0
        for a, x, f in zip(mats, rhs, originals):
            np.testing.assert_allclose(a @ x, f, atol=1e-9)

    def test_vector_rhs_and_skips(self):
        dev = Device()
        sizes = [10, 20]
        mats = make_spd_batch(sizes, "d", seed=6)
        b = VBatch.from_host(dev, mats)
        potrf_vbatched(dev, b)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20)
        f = x.copy()
        potrs_vbatched(dev, b, [None, x])
        np.testing.assert_allclose(mats[1] @ x, f, atol=1e-9)

    def test_validation(self):
        dev = Device()
        b = VBatch.from_host(dev, make_spd_batch([4, 5], "d"))
        with pytest.raises(ArgumentError):
            potrs_vbatched(dev, b, [None])  # wrong count
        with pytest.raises(ArgumentError):
            potrs_vbatched(dev, b, [np.zeros(3), None])  # wrong rows

    def test_timing_charged(self):
        dev = Device()
        sizes = [64] * 20
        mats = make_spd_batch(sizes, "d", seed=8)
        b = VBatch.from_host(dev, mats)
        potrf_vbatched(dev, b)
        t0 = dev.synchronize()
        potrs_vbatched(dev, b, [np.ones((64, 4)) for _ in sizes])
        assert dev.synchronize() > t0


class TestGetrsVbatched:
    def test_solves_with_pivots(self):
        dev = Device()
        sizes = [7, 30, 64]
        mats = random_square_batch(sizes, seed=9)
        # Force a pivot-demanding first matrix.
        mats[0][0, 0] = 0.0
        b = VBatch.from_host(dev, mats)
        res = getrf_vbatched(dev, b)
        assert res.failed_count == 0
        from repro.extensions import getrs_vbatched

        rng = np.random.default_rng(10)
        rhs = [rng.standard_normal((n, 3)) for n in sizes]
        originals = [r.copy() for r in rhs]
        sol = getrs_vbatched(dev, b, res.outputs["ipivs"], rhs)
        assert sol.gflops > 0
        for a, x, f in zip(mats, rhs, originals):
            np.testing.assert_allclose(a @ x, f, atol=1e-8)

    def test_validation(self):
        dev = Device()
        mats = random_square_batch([4, 5], seed=11)
        b = VBatch.from_host(dev, mats)
        res = getrf_vbatched(dev, b)
        from repro.extensions import getrs_vbatched

        with pytest.raises(ArgumentError):
            getrs_vbatched(dev, b, res.outputs["ipivs"], [None])
        with pytest.raises(ArgumentError):
            getrs_vbatched(dev, b, res.outputs["ipivs"][:1], [None, None])
        with pytest.raises(ArgumentError):
            getrs_vbatched(dev, b, res.outputs["ipivs"], [np.zeros(9), None])


class TestDriverRoutines:
    def test_posv_end_to_end(self):
        from repro.extensions import posv_vbatched

        dev = Device()
        sizes = [8, 30, 77]
        mats = make_spd_batch(sizes, "d", seed=20)
        b = VBatch.from_host(dev, mats)
        rng = np.random.default_rng(21)
        rhs = [rng.standard_normal((n, 2)) for n in sizes]
        keep = [r.copy() for r in rhs]
        res = posv_vbatched(dev, b, rhs)
        assert res.failed_count == 0
        assert res.elapsed == res.meta["factor_elapsed"] + res.meta["solve_elapsed"]
        for a, x, f in zip(mats, rhs, keep):
            np.testing.assert_allclose(a @ x, f, atol=1e-9)

    def test_posv_raises_on_indefinite(self):
        from repro.errors import BatchNumericalError
        from repro.extensions import posv_vbatched

        dev = Device()
        bad = np.eye(4)
        bad[1, 1] = -2.0
        b = VBatch.from_host(dev, [bad])
        with pytest.raises(BatchNumericalError):
            posv_vbatched(dev, b, [np.ones(4)])

    def test_gesv_end_to_end(self):
        from repro.extensions import gesv_vbatched

        dev = Device()
        sizes = [5, 40, 66]
        mats = random_square_batch(sizes, seed=22)
        mats[0][0, 0] = 0.0  # force pivoting
        b = VBatch.from_host(dev, mats)
        rng = np.random.default_rng(23)
        rhs = [rng.standard_normal(n) for n in sizes]
        keep = [r.copy() for r in rhs]
        res = gesv_vbatched(dev, b, rhs)
        assert res.failed_count == 0
        for a, x, f in zip(mats, rhs, keep):
            np.testing.assert_allclose(a @ x, f, atol=1e-8)

    def test_rhs_count_validated(self):
        from repro.extensions import gesv_vbatched, posv_vbatched

        dev = Device()
        b = VBatch.from_host(dev, make_spd_batch([4, 4], "d"))
        with pytest.raises(ArgumentError):
            posv_vbatched(dev, b, [None])
        with pytest.raises(ArgumentError):
            gesv_vbatched(dev, b, [None])
