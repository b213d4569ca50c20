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
from repro.hostblas import cholesky_residual, make_spd_batch
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

    @pytest.mark.parametrize("n", [25, 37])  # 25: one trailing row
    @pytest.mark.parametrize("precision", ["d", "z"])
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_factor_is_independent_of_batch(self, approach, precision, n):
        target = make_spd_batch([n], precision, seed=9)[0]
        others = make_spd_batch([n, 64, 9, n, 50], precision, seed=4)

        def factor_of_target(batch_mats, pos):
            mats = [m.copy() for m in batch_mats]
            mats.insert(pos, target.copy())
            sizes = [m.shape[0] for m in mats]
            outs, infos = factorize(
                sizes, mats, approach, False, precision=precision, **SMALL_BLOCKS
            )
            assert not infos.any()
            return outs[pos]

        alone = factor_of_target([], 0)
        mixed = factor_of_target(others, 2)
        same = factor_of_target([others[0], others[3]], 1)
        assert np.array_equal(alone, mixed)
        assert np.array_equal(alone, same)
        assert cholesky_residual(target, alone) < 1e-13

    @pytest.mark.parametrize("n", [33, 129, 257])  # 129/257: one trailing column
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    @pytest.mark.parametrize("op", ["getrf", "geqrf"])
    def test_extension_factor_is_independent_of_batch(self, op, approach, n):
        from repro.ops import OpOptions, get_op, run_op_vbatched

        rng = np.random.default_rng(n)
        target = rng.standard_normal((n, n))
        others = [rng.standard_normal((m, m)) for m in (n, 70, 9, n, 130)]
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
