"""Differential tests: bucketed-vectorized kernels vs the per-matrix
reference path.

Every kernel's ``run_numerics`` has two implementations — the original
per-matrix loop (the reference, selected by
``grouping.reference_numerics()`` or ``REPRO_REFERENCE_KERNELS=1``) and
the size-bucketed batched-NumPy path.  These tests factorize identical
batches down both paths and require the factors, infos, and padding
bytes to agree.
"""

import numpy as np
import pytest

from repro import Device, OpOptions, VBatch, potrf_vbatched
from repro.baselines import run_cpu_percore, run_cpu_percore_measured
from repro.distributions import gaussian_sizes, uniform_sizes
from repro.hostblas import build_q, cholesky_residual, make_spd_batch
from repro.kernels import grouping


def factorize(sizes, mats, approach, reference, ldas=None, precision="d", **opts):
    """One full factorization; returns (downloaded factors, infos)."""
    device = Device()
    if ldas is None:
        batch = VBatch.from_host(device, mats)
    else:
        batch = VBatch.allocate(device, sizes, precision, ldas=ldas)
        for i, (n, lda) in enumerate(zip(sizes, ldas)):
            buf = batch.matrices[i].data
            buf[...] = -777.0  # sentinel in the padding rows
            buf[:n, :n] = mats[i]
    with grouping.reference_numerics(reference):
        potrf_vbatched(device, batch, OpOptions(approach=approach, **opts))
    outs = [m.data.copy() for m in batch.matrices]
    infos = batch.infos_dev.data.copy()
    return outs, infos


def tol(precision):
    return 1e-4 if precision in ("s", "c") else 1e-12


class TestReferenceSwitch:
    def test_context_manager_restores(self):
        assert not grouping.reference_enabled()
        with grouping.reference_numerics():
            assert grouping.reference_enabled()
        assert not grouping.reference_enabled()

    def test_set_returns_previous(self):
        prev = grouping.set_reference_numerics(True)
        try:
            assert prev is False
            assert grouping.reference_enabled()
        finally:
            grouping.set_reference_numerics(prev)


class TestDifferentialFactorization:
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    @pytest.mark.parametrize("dist", ["uniform", "gaussian"])
    def test_distributions_match_reference(self, approach, dist):
        gen = uniform_sizes if dist == "uniform" else gaussian_sizes
        sizes = gen(40, 96, seed=7).tolist()
        mats = make_spd_batch(sizes, "d", seed=3)
        ref, ref_infos = factorize(sizes, [m.copy() for m in mats], approach, True)
        vec, vec_infos = factorize(sizes, [m.copy() for m in mats], approach, False)
        assert np.array_equal(ref_infos, vec_infos)
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=tol("d"), atol=tol("d"))

    def test_single_precision_tolerance(self):
        sizes = uniform_sizes(24, 64, seed=1).tolist()
        mats = make_spd_batch(sizes, "s", seed=5)
        ref, _ = factorize(sizes, [m.copy() for m in mats], "fused", True)
        vec, _ = factorize(sizes, [m.copy() for m in mats], "fused", False)
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=tol("s"), atol=tol("s"))

    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_lda_padding_matches_reference(self, approach):
        sizes = [5, 33, 33, 64, 17, 5, 33]
        ldas = [8, 40, 40, 64, 32, 8, 48]  # repeated (n, lda) -> real buckets
        mats = make_spd_batch(sizes, "d", seed=11)
        ref, ref_infos = factorize(sizes, mats, approach, True, ldas=ldas)
        vec, vec_infos = factorize(sizes, mats, approach, False, ldas=ldas)
        assert np.array_equal(ref_infos, vec_infos)
        for n, lda, r, v in zip(sizes, ldas, ref, vec):
            np.testing.assert_allclose(v[:n, :n], r[:n, :n], rtol=1e-12, atol=1e-12)
            # Both paths must leave the padding rows untouched.
            assert np.all(r[n:, :] == -777.0)
            assert np.all(v[n:, :] == -777.0)
        worst = max(
            cholesky_residual(a, v[:n, :n])
            for a, v, n in zip(mats, vec, sizes)
        )
        assert worst < 1e-13

    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_failed_matrices_match_reference(self, approach):
        """Early-terminated (non-SPD) matrices: same infos, same partial
        factors, and no writes past the failing column."""
        sizes = [48, 48, 48, 48, 32]
        mats = make_spd_batch(sizes, "d", seed=2)
        mats[1][20, 20] = -5.0  # fails at pivot 21
        mats[3][0, 0] = -1.0  # fails immediately
        ref, ref_infos = factorize(
            sizes, [m.copy() for m in mats], approach, True, on_error="info"
        )
        vec, vec_infos = factorize(
            sizes, [m.copy() for m in mats], approach, False, on_error="info"
        )
        assert np.array_equal(ref_infos, vec_infos)
        assert ref_infos[1] != 0 and ref_infos[3] != 0
        assert ref_infos[0] == ref_infos[2] == ref_infos[4] == 0
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_poison_past_first_panel_matches_reference(self, approach):
        """A late pivot failure, a NaN matrix and an Inf matrix among
        healthy matrices of equal and different orders: same infos and
        partial factors as the reference; healthy factors bit-identical
        to the same batch without the poison."""
        sizes = [48, 48, 48, 48, 32, 70]
        opts = dict(nb=8, panel_nb=24, on_error="info")
        clean = make_spd_batch(sizes, "d", seed=2)
        mats = [m.copy() for m in clean]
        mats[1][40, 40] = -5.0  # leading minor 41 fails: step j0=40
        mats[2][30, 5] = mats[2][5, 30] = np.nan  # below the first tile
        mats[4][20, 3] = mats[4][3, 20] = np.inf
        ref, ref_infos = factorize(sizes, [m.copy() for m in mats], approach, True, **opts)
        vec, vec_infos = factorize(sizes, [m.copy() for m in mats], approach, False, **opts)
        assert ref_infos.tolist() == vec_infos.tolist() == [0, 41, 31, 0, 21, 0]
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=1e-12, atol=1e-12)
        healthy, _ = factorize(sizes, [m.copy() for m in clean], approach, False, **opts)
        for i in (0, 3, 5):
            assert np.array_equal(vec[i], healthy[i]), f"matrix {i}"

    def test_env_var_selects_reference(self, monkeypatch):
        import importlib

        monkeypatch.setenv("REPRO_REFERENCE_KERNELS", "1")
        mod = importlib.reload(grouping)
        try:
            assert mod.reference_enabled()
        finally:
            monkeypatch.delenv("REPRO_REFERENCE_KERNELS")
            importlib.reload(grouping)
        assert not grouping.reference_enabled()


SMALL_BLOCKS = dict(nb=8, panel_nb=24)  # separated: trsm/syrk at small n


class TestBatchCompositionInvariance:
    """A factor depends only on its own matrix: bit-identical alone, in
    a mixed-size batch and in a same-size batch (what keeps sharded ==
    single-device exact)."""

    # 25: one trailing row.  poisoned: the mixed batch also holds a
    # non-SPD matrix and a NaN matrix of the target's own order, so they
    # share its stacked group.
    @pytest.mark.parametrize(
        "n, poisoned", [(25, False), (37, False), (25, True), (37, True)],
        ids=["25", "37", "25-poisoned", "37-poisoned"],
    )
    @pytest.mark.parametrize("precision", ["d", "z"])
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_factor_is_independent_of_batch(self, approach, precision, n, poisoned):
        target = make_spd_batch([n], precision, seed=9)[0]
        others = make_spd_batch([n, 64, 9, n, 50], precision, seed=4)
        if poisoned:
            non_spd, with_nan = make_spd_batch([n, n], precision, seed=5)
            non_spd[n - 3, n - 3] = -1.0  # fails past the first panel
            with_nan[n // 2, 1] = with_nan[1, n // 2] = np.nan
            others += [non_spd, with_nan]

        def factor_of_target(batch_mats, pos, failing=0):
            mats = [m.copy() for m in batch_mats]
            mats.insert(pos, target.copy())
            sizes = [m.shape[0] for m in mats]
            run = dict(precision=precision, on_error="info", **SMALL_BLOCKS)
            outs, infos = factorize(sizes, [m.copy() for m in mats], approach, False, **run)
            assert np.count_nonzero(infos) == failing
            if failing:
                _, ref_infos = factorize(sizes, mats, approach, True, **run)
                assert infos.tolist() == ref_infos.tolist()
            return outs[pos]

        alone = factor_of_target([], 0)
        mixed = factor_of_target(others, 2, failing=2 if poisoned else 0)
        same = factor_of_target([others[0], others[3]], 1)
        assert np.array_equal(alone, mixed)
        assert np.array_equal(alone, same)
        assert cholesky_residual(target, alone) < 1e-13

    # 129/257: one trailing column; 8..16: the hmatrix tile orders, where
    # every panel is a whole matrix.
    @pytest.mark.parametrize("n", [8, 13, 16, 33, 129, 257])
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    @pytest.mark.parametrize("op", ["getrf", "geqrf"])
    def test_extension_factor_is_independent_of_batch(self, op, approach, n):
        from repro.ops import OpOptions, get_op, run_op_vbatched

        rng = np.random.default_rng(n)
        target = rng.standard_normal((n, n))
        other_sizes = (n, 11, 9, n, 16) if n <= 16 else (n, 70, 9, n, 130)
        others = [rng.standard_normal((m, m)) for m in other_sizes]
        (key,) = get_op(op).output_keys

        def factor_of_target(batch_mats, pos):
            mats = [m.copy() for m in batch_mats]
            mats.insert(pos, target.copy())
            device = Device()
            batch = VBatch.from_host(device, mats)
            result = run_op_vbatched(
                device, batch, None, op, OpOptions(approach=approach)
            )
            assert not result.infos.any()
            out = batch.download_matrices()[pos], result.outputs[key][pos, :n].copy()
            batch.free()
            return out

        alone = factor_of_target([], 0)
        mixed = factor_of_target(others, 2)
        same = factor_of_target([others[0], others[3]], 1)
        for got in (mixed, same):
            assert np.array_equal(alone[0], got[0])
            assert np.array_equal(alone[1], got[1])

    # Straddling the Jacobi order classes (multiples of 8).
    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
    def test_gesvj_is_independent_of_batch(self, n):
        rng = np.random.default_rng(100 + n)
        target = rng.standard_normal((n, n))
        others = [rng.standard_normal((m, m)) for m in (n, 24, 9, n, 16, 3)]

        def svd_of_target(batch_mats, pos):
            mats = [m.copy() for m in batch_mats]
            mats.insert(pos, target.copy())
            result, factors = run_op("gesvj", mats)
            out = result.outputs
            return (factors[pos], out["singular_values"][pos, :n].copy(),
                    out["vt"][pos].copy(), out["sweeps_done"][pos])

        alone = svd_of_target([], 0)
        mixed = svd_of_target(others, 2)
        same = svd_of_target([others[0], others[3]], 1)
        assert alone[3] > 0
        for got in (mixed, same):
            for want, have in zip(alone, got):
                assert np.array_equal(want, have)


class TestSolveCompositionInvariance:
    """posv/gesv solutions depend only on their own system: bitwise the
    same alone, in a mixed-order batch and in a same-order batch, and
    equal to the reference substitution up to rounding."""

    @staticmethod
    def _solve(alias, mats, rhs, reference=False):
        from repro.extensions import gesv_vbatched, posv_vbatched

        driver = posv_vbatched if alias == "posv" else gesv_vbatched
        device = Device()
        batch = VBatch.from_host(device, [m.copy() for m in mats])
        out = [b.copy() for b in rhs]
        with grouping.reference_numerics(reference):
            driver(device, batch, out)
        batch.free()
        return out

    @pytest.mark.parametrize("nrhs", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("n", [9, 32, 33, 70])
    @pytest.mark.parametrize("precision", ["d", "z"])
    @pytest.mark.parametrize("alias", ["posv", "gesv"])
    def test_solution_is_independent_of_batch(self, alias, precision, n, nrhs):
        rng = np.random.default_rng(n)
        dtype = np.complex128 if precision == "z" else np.float64

        def system(m, k=nrhs):
            if alias == "posv":
                a = make_spd_batch([m], precision, seed=m + 1)[0]
            else:
                a = rng.standard_normal((m, m)).astype(dtype)
            shape = (m,) if k is None else (m, k)
            return a, rng.standard_normal(shape).astype(dtype)

        target = system(n)
        others = [system(m, k) for m, k in [(n, nrhs), (40, 2), (n, 1), (5, None), (n, nrhs)]]

        def solution_of_target(batch_systems, pos):
            systems = list(batch_systems)
            systems.insert(pos, target)
            return self._solve(alias, [a for a, _ in systems], [b for _, b in systems])[pos]

        alone = solution_of_target([], 0)
        mixed = solution_of_target(others, 2)
        same = solution_of_target([others[0], others[4]], 1)
        assert alone.shape == target[1].shape
        assert np.array_equal(alone, mixed)
        assert np.array_equal(alone, same)
        (want,) = self._solve(alias, [target[0]], [target[1]], reference=True)
        np.testing.assert_allclose(alone, want, rtol=tol(precision), atol=tol(precision))


def run_op(op, mats, reference=False, ldas=None, options=None):
    """One extension-op run on fresh matrices; returns (result, buffers).

    With ``ldas`` each buffer is the whole ``lda x n`` allocation, its
    padding rows set to the -777 sentinel before the run.
    """
    from repro.ops import OpOptions, run_op_vbatched

    device = Device()
    if ldas is None:
        batch = VBatch.from_host(device, [m.copy() for m in mats])
    else:
        sizes = [m.shape[0] for m in mats]
        batch = VBatch.allocate(device, sizes, mats[0].dtype.char, ldas=ldas)
        for i, (m, n) in enumerate(zip(mats, sizes)):
            batch.matrices[i].data[...] = -777.0
            batch.matrices[i].data[:n, :n] = m
    with grouping.reference_numerics(reference):
        result = run_op_vbatched(device, batch, None, op, options or OpOptions())
    if ldas is None:
        buffers = batch.download_matrices()
    else:
        buffers = [m.data.copy() for m in batch.matrices]
    batch.free()
    return result, buffers


class TestStackedVsReference:
    """The stacked Jacobi sweep and LAPACK QR panels against the
    per-matrix reference loops (``grouping.reference_numerics()``)."""

    SIZES = [1, 2, 3, 7, 8, 9, 16, 17, 24]

    @staticmethod
    def _mats(sizes, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        out = []
        for n in sizes:
            a = rng.standard_normal((n, n))
            if np.dtype(dtype).kind == "c":
                a = a + 1j * rng.standard_normal((n, n))
            out.append(a.astype(dtype))
        return out

    def test_gesvj_singular_values_and_orthogonality(self):
        mats = self._mats(self.SIZES, seed=1)
        ref, _ = run_op("gesvj", mats, reference=True)
        got, us = run_op("gesvj", mats)
        for i, (a, u) in enumerate(zip(mats, us)):
            n = a.shape[0]
            sigma = got.outputs["singular_values"][i, :n]
            np.testing.assert_allclose(
                sigma, ref.outputs["singular_values"][i, :n], rtol=1e-12
            )
            vt = got.outputs["vt"][i]
            # U's columns are orthogonal to the sweep tolerance; V is a
            # product of exact rotations.
            np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
            np.testing.assert_allclose(vt @ vt.T, np.eye(n), atol=1e-13)
            np.testing.assert_allclose(u @ (sigma[:, None] * vt), a, atol=1e-12 * n)
        assert (got.outputs["sweeps_done"] > 0).sum() == len(mats) - 1  # n = 1 needs none

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (16, 9), (9, 16)])
    def test_gesvj_of_rank_deficient_r_factors(self, shape):
        """What the hmatrix app feeds gesvj: the R factor of an m x n tile
        zero-embedded into a square of order max(m, n)."""
        m, n = shape
        order = max(m, n)
        tiles = []
        for seed in range(3):
            emb = np.zeros((order, order))
            emb[:m, :n] = self._mats([order], seed=seed)[0][:m, :n]
            tiles.append(emb)
        _, factors = run_op("geqrf", tiles)
        rs = [np.triu(f) for f in factors]
        ref, _ = run_op("gesvj", rs, reference=True)
        got, _ = run_op("gesvj", rs)
        rank = min(m, n)
        for i in range(len(rs)):
            want = ref.outputs["singular_values"][i]
            have = got.outputs["singular_values"][i]
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12 * want[0])
            np.testing.assert_allclose(
                have[:rank], np.linalg.svd(tiles[i], compute_uv=False)[:rank], rtol=1e-12
            )
            if m > n:  # exactly-zero columns never rotate
                assert not have[rank:].any()

    @pytest.mark.parametrize("op", ["gesvj", "geqrf"])
    def test_lda_padding_never_written(self, op):
        mats = self._mats(self.SIZES, seed=2)
        ldas = [n + pad for n, pad in zip(self.SIZES, [0, 3, 1, 7, 0, 2, 8, 1, 5])]
        _, ref_bufs = run_op(op, mats, reference=True, ldas=ldas)
        _, got_bufs = run_op(op, mats, ldas=ldas)
        # Singular vectors agree to the sweep tolerance, QR to rounding.
        atol = 1e-8 if op == "gesvj" else 1e-12
        for n, r, g in zip(self.SIZES, ref_bufs, got_bufs):
            assert np.all(g[n:, :] == -777.0)
            np.testing.assert_allclose(np.abs(g[:n, :n]), np.abs(r[:n, :n]), atol=atol)

    @pytest.mark.parametrize("precision", ["d", "s"])
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_geqrf_matches_reference(self, approach, precision):
        from repro.ops import OpOptions

        dtype = np.float64 if precision == "d" else np.float32
        atol = 1e-12 if precision == "d" else 1e-4
        mats = self._mats(self.SIZES + [40], seed=3, dtype=dtype)
        # panel_nb 8: the separated sweep applies each panel's T to the
        # trailing columns, so a wrong T shows up in R.
        opts = OpOptions(approach=approach, panel_nb=8)
        ref, ref_f = run_op("geqrf", mats, reference=True, options=opts)
        got, got_f = run_op("geqrf", mats, options=opts)
        for i, (a, r, g) in enumerate(zip(mats, ref_f, got_f)):
            n = a.shape[0]
            taus = got.outputs["taus"][i, :n]
            np.testing.assert_allclose(taus, ref.outputs["taus"][i, :n], atol=atol)
            np.testing.assert_allclose(g, r, atol=atol * n)
            q = build_q(g, taus)
            np.testing.assert_allclose(q @ np.triu(g), a, atol=atol * n)

    @pytest.mark.parametrize("precision", ["c", "z"])
    def test_complex_geqrf_is_the_reference(self, precision):
        dtype = np.complex64 if precision == "c" else np.complex128
        mats = self._mats(self.SIZES, seed=4, dtype=dtype)
        ref, ref_f = run_op("geqrf", mats, reference=True)
        got, got_f = run_op("geqrf", mats)
        assert np.array_equal(got.outputs["taus"], ref.outputs["taus"])
        for r, g in zip(ref_f, got_f):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("op", ["gesvj", "geqrf", "getrf"])
    def test_non_finite_matrix_leaves_batchmates_alone(self, op):
        sizes = [9, 9, 9, 12, 9]
        clean = self._mats(sizes, seed=5)
        mats = [m.copy() for m in clean]
        mats[1][4, 2] = np.nan
        mats[3][0, 7] = np.inf
        healthy, healthy_f = run_op(op, clean)
        with np.errstate(invalid="ignore"):
            got, got_f = run_op(op, mats)
        for i in (0, 2, 4):
            assert np.array_equal(got_f[i], healthy_f[i]), f"matrix {i}"
            for key, want in healthy.outputs.items():
                assert np.array_equal(got.outputs[key][i], want[i]), f"{key}[{i}]"
        assert not np.isfinite(got_f[1]).all()


class TestStackedLU:
    """The stacked getf2 panels, permutation swaps and stacked ``U12``
    solve against the per-matrix reference loops, bit for bit."""

    ORDERS = [1, 8, 9, 16, 17, 64, 65]

    @staticmethod
    def _mats(dtype, seed=6):
        rng = np.random.default_rng(seed)
        orders = TestStackedLU.ORDERS
        mats = [rng.standard_normal((n, n)).astype(dtype) for n in orders + [17, 17, 64, 9]]
        if np.dtype(dtype).kind == "c":
            mats = [m + 1j * rng.standard_normal(m.shape) for m in mats]
        zero_col, all_zero, with_nan, dependent = mats[len(orders):]
        zero_col[:, 5] = 0  # singular at step 6
        all_zero[...] = 0  # singular at step 1, nothing to swap
        with_nan[40, 3] = np.nan
        dependent[:, 7] = 2 * dependent[:, 2]  # singular in exact arithmetic only
        return mats

    @staticmethod
    def _run_both(mats, approach, panel_nb):
        from repro.ops import OpOptions

        opts = OpOptions(approach=approach, panel_nb=panel_nb)
        with np.errstate(invalid="ignore"):
            ref = run_op("getrf", mats, reference=True, options=opts)
            got = run_op("getrf", mats, options=opts)
        return ref, got

    @pytest.mark.parametrize("precision", ["d", "s", "z"])
    @pytest.mark.parametrize(
        "approach, panel_nb",
        [("fused", None), ("separated", 8), ("separated", 16), ("separated", None)],
        ids=["fused", "separated-8", "separated-16", "separated-default"],
    )
    def test_getrf_is_the_reference_bit_for_bit(self, approach, panel_nb, precision,
                                                monkeypatch):
        if approach == "separated":
            # The separated sweep's trailing update stays on the gemm
            # kernel's reference path here: at n = k * panel_nb + 1 its
            # last update is a 1 x 1 product, which BLAS rounds
            # differently as a dot over the reference's strided views
            # than over the stacked path's contiguous copies.
            # test_separated_getrf_matches_the_reference runs it unpinned.
            from repro.kernels.gemm import VbatchedGemmKernel

            gemm_numerics = VbatchedGemmKernel.run_numerics

            def reference_gemm(kernel, operands):
                with grouping.reference_numerics():
                    gemm_numerics(kernel, operands)

            monkeypatch.setattr(VbatchedGemmKernel, "run_numerics", reference_gemm)
        dtype = {"d": np.float64, "s": np.float32, "z": np.complex128}[precision]
        (ref, ref_f), (got, got_f) = self._run_both(self._mats(dtype), approach, panel_nb)
        assert got.infos.tolist() == ref.infos.tolist()
        assert got.infos[-4:-1].tolist() == [6, 1, 0]
        assert np.array_equal(got.outputs["ipivs"], ref.outputs["ipivs"])
        for i, (r, g) in enumerate(zip(ref_f, got_f)):
            assert np.array_equal(g, r, equal_nan=True), f"matrix {i}"

    @pytest.mark.parametrize("precision", ["d", "s", "z"])
    @pytest.mark.parametrize("panel_nb", [8, 16, None], ids=["8", "16", "default"])
    def test_separated_getrf_matches_the_reference(self, panel_nb, precision):
        """Every kernel on its fast path, the trailing gemm included."""
        dtype = {"d": np.float64, "s": np.float32, "z": np.complex128}[precision]
        (ref, ref_f), (got, got_f) = self._run_both(self._mats(dtype), "separated", panel_nb)
        assert got.infos.tolist() == ref.infos.tolist()
        assert got.infos[-4:-1].tolist() == [6, 1, 0]
        assert np.array_equal(got.outputs["ipivs"], ref.outputs["ipivs"])
        t = tol(precision)
        for i, (r, g) in enumerate(zip(ref_f, got_f)):
            np.testing.assert_allclose(g, r, rtol=t, atol=t, err_msg=f"matrix {i}")


class TestEdgeShapes:
    """Tile-order grouping edge cases against the reference path."""

    # n < nb, n == nb, n == nb + 1, and the same around panel_nb.
    SIZES = [1, 3, 8, 9, 16, 23, 24, 25, 33]

    @pytest.mark.parametrize("precision", ["d", "z", "c"])
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_short_tiles_and_padding_match_reference(self, approach, precision):
        sizes = self.SIZES
        ldas = [n + pad for n, pad in zip(sizes, [0, 2, 1, 7, 0, 3, 8, 1, 5])]
        mats = make_spd_batch(sizes, precision, seed=13)
        ref, ref_infos = factorize(
            sizes, mats, approach, True, ldas=ldas, precision=precision, **SMALL_BLOCKS
        )
        vec, vec_infos = factorize(
            sizes, mats, approach, False, ldas=ldas, precision=precision, **SMALL_BLOCKS
        )
        assert not ref_infos.any() and not vec_infos.any()
        for n, r, v in zip(sizes, ref, vec):
            np.testing.assert_allclose(v[:n, :n], r[:n, :n], rtol=tol(precision), atol=tol(precision))
            assert np.all(v[n:, :] == -777.0)
            # The strict upper triangle is never written.
            upper = np.triu_indices(n, 1)
            assert np.array_equal(v[:n, :n][upper], r[:n, :n][upper])
        if precision in ("d", "z"):
            worst = max(cholesky_residual(a, v[:n, :n]) for a, v, n in zip(mats, vec, sizes))
            assert worst < 1e-13


class TestBucketHelpers:
    def test_partition_first_seen_order(self):
        keys = [(8, 8), (4, 4), (8, 8), (4, 8), (4, 4)]
        buckets = grouping.partition_buckets(keys)
        assert [b.key for b in buckets] == [(8, 8), (4, 4), (4, 8)]
        assert [b.positions.tolist() for b in buckets] == [[0, 2], [1, 4], [3]]

    def test_grouped_first_seen_preserves_issue_order(self):
        vals = np.array([7, 3, 7, 7, 5, 3])
        uniq, counts = grouping.grouped_first_seen(vals)
        assert uniq.tolist() == [7, 3, 5]
        assert counts.tolist() == [3, 2, 1]

    def test_grouped_first_seen_empty(self):
        uniq, counts = grouping.grouped_first_seen(np.array([], dtype=np.int64))
        assert uniq.size == 0 and counts.size == 0

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (1, 1), ()])
    def test_grouped_first_seen_single_element_matches_unique(self, dtype, shape):
        values = np.full(shape, 7, dtype=dtype)
        uniq, counts = grouping.grouped_first_seen(values)
        ref_uniq, first, ref_counts = np.unique(values, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        for got, want in ((uniq, ref_uniq[order]), (counts, ref_counts[order])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(uniq, values)


class TestMeasuredPercoreBaseline:
    SIZES = np.array([24, 40, 16, 32, 8, 48, 12, 20])

    def test_dynamic_thread_pool_factorizes(self):
        mats = make_spd_batch(self.SIZES.tolist(), "d", seed=3)
        orig = [a.copy() for a in mats]
        r = run_cpu_percore_measured(
            self.SIZES, "d", scheduling="dynamic", workers=3, matrices=mats
        )
        assert r.label == "cpu-1core-dynamic-measured"
        assert r.elapsed > 0 and r.extra["failed"] == 0
        assert r.core_busy.shape == (3,)
        worst = max(cholesky_residual(a, l) for a, l in zip(orig, mats))
        assert worst < 1e-13

    def test_static_round_robin(self):
        r = run_cpu_percore_measured(self.SIZES, "d", scheduling="static", workers=2)
        assert r.label == "cpu-1core-static-measured"
        assert r.extra["workers"] == 2 and r.extra["failed"] == 0
        assert r.core_busy.shape == (2,)
        assert 0.0 < r.extra["utilization"] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cpu_percore_measured(np.array([]), "d")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", scheduling="guided")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", executor="mpi")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", matrices=[np.eye(2)])

    def test_modeled_and_measured_report_same_flops(self):
        modeled = run_cpu_percore(self.SIZES, "d")
        measured = run_cpu_percore_measured(self.SIZES, "d", workers=2)
        assert modeled.total_flops == measured.total_flops
