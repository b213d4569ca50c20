"""End-to-end tests for the vbatched drivers and the public interface."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg as sla

from repro import (
    Device,
    OpOptions,
    VBatch,
    make_spd_batch,
    potrf_batched_fixed,
    potrf_vbatched,
    potrf_vbatched_max,
)
from repro.core.blas_steps import BlasStepDriver
from repro.core.crossover import CrossoverPolicy, DEFAULT_CROSSOVER
from repro.core.fused import FusedDriver, default_fused_nb, fused_max_feasible_size
from repro.core.padding import pad_to_fixed, padding_extra_flops
from repro.core.separated import SeparatedDriver
from repro.errors import ArgumentError, BatchNumericalError, DeviceOutOfMemory
from repro.hostblas import cholesky_residual, make_spd
from repro.types import Precision


def residuals(mats, batch):
    outs = batch.download_matrices()
    return [cholesky_residual(a, l) for a, l in zip(mats, outs)]


SIZES = [7, 1, 33, 64, 96, 50, 128, 2, 31]


class TestFusedDriver:
    @pytest.mark.parametrize("etm", ["classic", "aggressive"])
    @pytest.mark.parametrize("sorting", [False, True])
    def test_all_variants_numerically_identical(self, etm, sorting):
        dev = Device()
        mats = make_spd_batch(SIZES, "d", seed=1)
        b = VBatch.from_host(dev, mats)
        FusedDriver(dev, etm=etm, sorting=sorting).factorize(b, max(SIZES))
        assert max(residuals(mats, b)) < 1e-13

    def test_stats_reported(self):
        dev = Device()
        b = VBatch.from_host(dev, make_spd_batch(SIZES, "d", seed=1))
        stats = FusedDriver(dev, sorting=True).factorize(b, max(SIZES))
        assert stats.steps > 0
        assert stats.fused_launches >= stats.steps
        assert stats.aux_launches == stats.steps

    def test_sorting_launches_at_least_unsorted(self):
        dev1 = Device(execute_numerics=False)
        b1 = VBatch.allocate(dev1, SIZES, "d")
        s1 = FusedDriver(dev1, sorting=False).factorize(b1, max(SIZES))
        dev2 = Device(execute_numerics=False)
        b2 = VBatch.allocate(dev2, SIZES, "d")
        s2 = FusedDriver(dev2, sorting=True).factorize(b2, max(SIZES))
        assert s2.fused_launches >= s1.fused_launches

    def test_validation(self):
        dev = Device()
        with pytest.raises(ArgumentError):
            FusedDriver(dev, etm="hyper")
        b = VBatch.allocate(Device(execute_numerics=False), [4], "d")
        with pytest.raises(ArgumentError):
            FusedDriver(dev).factorize(b, 0)


class TestDefaultNb:
    @pytest.mark.parametrize("prec", ["s", "d", "c", "z"])
    def test_always_feasible(self, prec):
        from repro.types import precision_info

        elem = precision_info(prec).bytes_per_element
        for n in (1, 16, 100, 500, 1000):
            nb = default_fused_nb(n, prec)
            rows = min(1024, -(-n // 32) * 32)
            assert rows * nb * elem <= 48 * 1024
            assert nb >= 1

    def test_narrower_for_larger_matrices(self):
        assert default_fused_nb(32, "d") >= default_fused_nb(512, "d")

    def test_feasible_bound(self):
        for prec in ("s", "d", "c", "z"):
            bound = fused_max_feasible_size(prec)
            assert 0 < bound <= 1024

    def test_invalid_max_n(self):
        with pytest.raises(ArgumentError):
            default_fused_nb(0, "d")


class TestSeparatedDriver:
    @pytest.mark.parametrize("panel_mode", ["fused", "naive"])
    @pytest.mark.parametrize("panel_nb", [64, 128])
    def test_numerics(self, panel_mode, panel_nb):
        dev = Device()
        sizes = [7, 65, 130, 96, 48, 200, 1]
        mats = make_spd_batch(sizes, "d", seed=2)
        b = VBatch.from_host(dev, mats)
        SeparatedDriver(dev, panel_nb=panel_nb, panel_mode=panel_mode).factorize(b, 200)
        assert max(residuals(mats, b)) < 1e-13

    def test_streamed_syrk_numerics(self):
        dev = Device()
        sizes = [64, 200, 150]
        mats = make_spd_batch(sizes, "d", seed=3)
        b = VBatch.from_host(dev, mats)
        SeparatedDriver(dev, syrk_mode="streamed").factorize(b, 200)
        assert max(residuals(mats, b)) < 1e-13

    def test_single_precision(self):
        dev = Device()
        sizes = [33, 150, 80]
        mats = make_spd_batch(sizes, "s", seed=4)
        b = VBatch.from_host(dev, mats)
        SeparatedDriver(dev).factorize(b, 150)
        assert max(residuals(mats, b)) < 1e-4

    def test_stats(self):
        dev = Device(execute_numerics=False)
        b = VBatch.allocate(dev, [300] * 4, "d")
        stats = SeparatedDriver(dev).factorize(b, 300)
        assert stats.steps == 3  # ceil(300/128)
        assert stats.potf2_launches > 0
        assert stats.trsm_launches > 0
        assert stats.syrk_launches > 0

    def test_validation(self):
        dev = Device()
        with pytest.raises(ArgumentError):
            SeparatedDriver(dev, panel_nb=0)
        with pytest.raises(ArgumentError):
            SeparatedDriver(dev, syrk_mode="magic")
        with pytest.raises(ArgumentError):
            SeparatedDriver(dev, panel_mode="magic")


class TestBlasStepDriver:
    def test_numerics(self):
        dev = Device()
        sizes = [5, 40, 100, 64]
        mats = make_spd_batch(sizes, "d", seed=5)
        b = VBatch.from_host(dev, mats)
        BlasStepDriver(dev).factorize(b, 100)
        assert max(residuals(mats, b)) < 1e-13

    def test_launch_count_exceeds_fused(self):
        """The whole point of fusion: far fewer launches."""
        dev1 = Device(execute_numerics=False)
        b1 = VBatch.allocate(dev1, [96] * 10, "d")
        blas = BlasStepDriver(dev1).factorize(b1, 96)
        dev2 = Device(execute_numerics=False)
        b2 = VBatch.allocate(dev2, [96] * 10, "d")
        fused = FusedDriver(dev2, sorting=False).factorize(b2, 96)
        assert blas.total_launches > fused.fused_launches
        # Per panel step, fusion collapses 3+ launches into one.
        assert blas.total_launches / blas.steps >= 3
        assert fused.fused_launches / fused.steps == 1

    def test_validation(self):
        dev = Device()
        with pytest.raises(ArgumentError):
            BlasStepDriver(dev, nb=0)


class TestPublicInterface:
    def test_lapack_like_interface(self):
        dev = Device()
        mats = make_spd_batch(SIZES, "d", seed=6)
        b = VBatch.from_host(dev, mats)
        res = potrf_vbatched(dev, b)
        assert res.max_n == max(SIZES)
        assert res.failed_count == 0
        assert res.gflops > 0
        assert max(residuals(mats, b)) < 1e-13

    def test_expert_interface_accepts_loose_max(self):
        dev = Device()
        mats = make_spd_batch([10, 20], "d", seed=7)
        b = VBatch.from_host(dev, mats)
        res = potrf_vbatched_max(dev, b, 64)  # > actual max: allowed
        assert res.failed_count == 0
        assert max(residuals(mats, b)) < 1e-13

    def test_max_smaller_than_batch_rejected(self):
        dev = Device()
        b = VBatch.from_host(dev, make_spd_batch([30], "d"))
        with pytest.raises(ArgumentError):
            potrf_vbatched_max(dev, b, 10)
        with pytest.raises(ArgumentError):
            potrf_vbatched_max(dev, b, 0)

    @pytest.mark.parametrize("approach", ["fused", "separated", "auto"])
    def test_approach_selection(self, approach):
        dev = Device()
        mats = make_spd_batch([40, 90], "d", seed=8)
        b = VBatch.from_host(dev, mats)
        res = potrf_vbatched(dev, b, OpOptions(approach=approach))
        expected = approach if approach != "auto" else "fused"
        assert res.approach == expected
        assert max(residuals(mats, b)) < 1e-13

    def test_auto_switches_to_separated_beyond_crossover(self):
        dev = Device(execute_numerics=False)
        big = DEFAULT_CROSSOVER[Precision.D] + 200
        b = VBatch.allocate(dev, [big, 50], "d")
        res = potrf_vbatched_max(dev, b, big)
        assert res.approach == "separated"

    def test_error_reporting_info_mode(self):
        dev = Device()
        bad = make_spd(12, "d", seed=9)
        bad[6, 6] = -1e4
        bad[7:, 6] = bad[6, 7:] = 0.0
        good = make_spd(8, "d", seed=10)
        b = VBatch.from_host(dev, [good, bad])
        res = potrf_vbatched(dev, b)
        assert res.failed_count == 1
        assert res.infos[0] == 0
        assert res.infos[1] == 7  # 1-based pivot of the failure

    def test_error_reporting_raise_mode(self):
        dev = Device()
        bad = np.eye(4)
        bad[2, 2] = -1.0
        b = VBatch.from_host(dev, [bad])
        with pytest.raises(BatchNumericalError) as ei:
            potrf_vbatched(dev, b, OpOptions(on_error="raise"))
        assert ei.value.infos == {0: 3}

    def test_options_validation(self):
        with pytest.raises(ArgumentError):
            OpOptions(approach="warp")
        with pytest.raises(ArgumentError):
            OpOptions(on_error="ignore")

    def test_result_timing_positive_and_flops_exact(self):
        from repro.flops import batch_flops

        dev = Device()
        mats = make_spd_batch([16, 48], "d", seed=11)
        b = VBatch.from_host(dev, mats)
        dev.reset_clock()
        res = potrf_vbatched(dev, b)
        assert res.elapsed > 0
        assert res.total_flops == pytest.approx(batch_flops([16, 48], "potrf", "d"))

    @pytest.mark.parametrize("prec,tol", [("s", 1e-4), ("d", 1e-13), ("c", 1e-4), ("z", 1e-13)])
    def test_all_precisions(self, prec, tol):
        dev = Device()
        mats = make_spd_batch([9, 33, 70], prec, seed=12)
        b = VBatch.from_host(dev, mats)
        res = potrf_vbatched(dev, b)
        assert res.failed_count == 0
        assert max(residuals(mats, b)) < tol

    @given(
        sizes=st.lists(st.integers(1, 96), min_size=1, max_size=12),
        approach=st.sampled_from(["fused", "separated"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_factorization_matches_scipy(self, sizes, approach):
        dev = Device()
        mats = make_spd_batch(sizes, "d", seed=sum(sizes))
        b = VBatch.from_host(dev, mats)
        potrf_vbatched(dev, b, OpOptions(approach=approach))
        for a, l in zip(mats, b.download_matrices()):
            ref = sla.cholesky(a, lower=True)
            np.testing.assert_allclose(np.tril(l), ref, rtol=1e-8, atol=1e-10)


class TestFixedAndPadding:
    def test_fixed_requires_constant_sizes(self):
        dev = Device()
        b = VBatch.from_host(dev, make_spd_batch([4, 8], "d"))
        with pytest.raises(ArgumentError, match="fixed-size"):
            potrf_batched_fixed(dev, b, 8)

    @pytest.mark.parametrize("approach", ["fused", "separated", "blas"])
    def test_fixed_numerics(self, approach):
        dev = Device()
        mats = make_spd_batch([48] * 5, "d", seed=13)
        b = VBatch.from_host(dev, mats)
        stats = potrf_batched_fixed(dev, b, 48, approach=approach)
        assert stats["approach"] == approach
        assert max(residuals(mats, b)) < 1e-13

    def test_fixed_fused_infeasible_size_rejected(self):
        dev = Device(execute_numerics=False)
        n = fused_max_feasible_size("d") + 64
        b = VBatch.allocate(dev, [n] * 2, "d")
        with pytest.raises(ArgumentError, match="infeasible"):
            potrf_batched_fixed(dev, b, n, approach="fused")

    def test_fixed_unknown_approach(self):
        dev = Device(execute_numerics=False)
        b = VBatch.allocate(dev, [8] * 2, "d")
        with pytest.raises(ArgumentError):
            potrf_batched_fixed(dev, b, 8, approach="hybrid")

    def test_padding_embeds_and_stays_spd(self):
        dev = Device()
        sizes = np.array([3, 5])
        mats = make_spd_batch(sizes, "d", seed=14)
        padded = pad_to_fixed(dev, sizes, 8, "d", host_matrices=mats)
        assert padded.max_size_host == 8
        for i, src in enumerate(mats):
            buf = padded.matrices[i].data
            np.testing.assert_array_equal(buf[: src.shape[0], : src.shape[0]], src)
            assert np.linalg.eigvalsh(buf).min() > 0  # still SPD

    def test_padding_factorization_correct(self):
        dev = Device()
        sizes = np.array([3, 6])
        mats = make_spd_batch(sizes, "d", seed=15)
        padded = pad_to_fixed(dev, sizes, 8, "d", host_matrices=mats)
        potrf_batched_fixed(dev, padded, 8, approach="fused")
        for i, (n, src) in enumerate(zip(sizes, mats)):
            l = np.tril(padded.matrices[i].data)[:n, :n]
            np.testing.assert_allclose(l @ l.T, src, rtol=1e-10, atol=1e-12)

    def test_padding_oom(self):
        dev = Device(execute_numerics=False)
        with pytest.raises(DeviceOutOfMemory):
            pad_to_fixed(dev, np.full(800, 100), 2000, "d")

    def test_padding_validation(self):
        dev = Device()
        with pytest.raises(ArgumentError):
            pad_to_fixed(dev, np.array([], dtype=np.int64), 8, "d")
        with pytest.raises(ArgumentError):
            pad_to_fixed(dev, np.array([10]), 8, "d")

    def test_padding_extra_flops_positive(self):
        extra = padding_extra_flops(np.array([10, 20]), 64)
        assert extra > 0


class TestCrossoverPolicy:
    def test_choose_by_size(self):
        pol = CrossoverPolicy(Precision.D)
        cross = pol.resolved_crossover()
        assert pol.choose(cross) == "fused"
        assert pol.choose(cross + 1) == "separated"

    def test_custom_crossover(self):
        pol = CrossoverPolicy(Precision.D, crossover_size=100)
        assert pol.choose(100) == "fused"
        assert pol.choose(101) == "separated"

    def test_clamped_to_feasibility(self):
        pol = CrossoverPolicy(Precision.D, crossover_size=10_000)
        assert pol.resolved_crossover() <= fused_max_feasible_size(Precision.D)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            CrossoverPolicy(Precision.D).choose(0)

    def test_sp_crossover_later_than_dp(self):
        assert DEFAULT_CROSSOVER[Precision.S] > DEFAULT_CROSSOVER[Precision.D]
