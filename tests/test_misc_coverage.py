"""Coverage for corners the larger suites skirt: error formatting,
single-matrix kernels, analytic-vs-exact scheduling at scale, and the
CPU model's secondary paths."""

import numpy as np
import pytest

from repro.cpu import MklModel
from repro.cpu.clockutil import busy_fraction
from repro.device import BlockScheduler, Device
from repro.errors import ArgumentError, BatchNumericalError
from repro.hostblas import make_spd
from repro.kernels.cublas import SingleGemmKernel, SinglePotf2Kernel
from repro.types import Precision


class TestErrorFormatting:
    def test_argument_error_info_code(self):
        e = ArgumentError(4, "bad arg")
        assert e.info == -4
        assert isinstance(e, ValueError)

    def test_batch_error_lists_first_failures(self):
        e = BatchNumericalError({i: i + 1 for i in range(12)}, "dpotrf")
        msg = str(e)
        assert "12 matrices failed" in msg
        assert "batch[0] info=1" in msg
        assert "+4 more" in msg

    def test_batch_error_short_list(self):
        e = BatchNumericalError({3: 7}, "spotrf")
        assert "+4 more" not in str(e)
        assert "batch[3] info=7" in str(e)


class TestSingleMatrixKernels:
    def test_single_gemm_numerics(self):
        dev = Device()
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 5))
        c = np.zeros((6, 5))
        dev.launch(SingleGemmKernel(6, 5, 4, Precision.D, a=a, b=b, c=c, beta=0.0))
        np.testing.assert_allclose(c, a @ b, rtol=1e-12)

    def test_single_gemm_few_blocks_idle_device(self):
        """A small single gemm cannot fill the simulated device."""
        dev = Device()
        rec = dev.launch(SingleGemmKernel(64, 64, 64, Precision.D))
        assert rec.blocks == 1
        assert rec.schedule.utilization < 0.1

    def test_single_gemm_zero_dims(self):
        dev = Device()
        rec = dev.launch(SingleGemmKernel(0, 5, 4, Precision.D))
        assert rec.duration < 1e-5

    def test_single_gemm_validation(self):
        with pytest.raises(ValueError):
            SingleGemmKernel(-1, 2, 2, Precision.D)

    def test_single_potf2_numerics_and_info(self):
        dev = Device()
        a = make_spd(12, "d", seed=3)
        dev.launch(SinglePotf2Kernel(12, Precision.D, a=a))
        import scipy.linalg as sla

        ref = sla.cholesky(make_spd(12, "d", seed=3), lower=True)
        np.testing.assert_allclose(np.tril(a), ref, rtol=1e-10)

    def test_single_potf2_failure_written_to_info(self):
        dev = Device()
        a = np.eye(4)
        a[2, 2] = -1.0
        info_out = np.zeros(1, dtype=np.int64)
        dev.launch(SinglePotf2Kernel(4, Precision.D, a=a, info_out=info_out, info_offset=10))
        assert info_out[0] == 13

    def test_single_potf2_serial_bound(self):
        """One block, one serial sweep: throughput is terrible — the
        reason hybrids put this step on the CPU."""
        dev = Device()
        rec = dev.launch(SinglePotf2Kernel(512, Precision.D))
        from repro.flops import potf2_flops

        gflops = potf2_flops(512) / rec.duration / 1e9
        assert gflops < 30.0

    def test_single_potf2_validation(self):
        with pytest.raises(ValueError):
            SinglePotf2Kernel(0, Precision.D)
        with pytest.raises(ValueError):
            SinglePotf2Kernel(2000, Precision.D)


class TestSchedulerConsistencyAtScale:
    def test_analytic_tracks_exact_on_large_uniformish_grids(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(1.0, 3.0, size=4000)
        s = BlockScheduler()
        exact = s.makespan(d, None, 240, force="exact").makespan
        approx = s.makespan(d, None, 240, force="analytic").makespan
        assert approx == pytest.approx(exact, rel=0.08)

    def test_auto_switches_by_threshold(self):
        s = BlockScheduler(exact_threshold=10)
        small = s.makespan(np.full(10, 1.0), None, 4)
        big = s.makespan(np.full(11, 1.0), None, 4)
        assert small.exact and not big.exact

    def test_device_uses_analytic_for_huge_grids(self):
        from repro.device.kernel import BlockWork, Kernel, LaunchConfig

        class Huge(Kernel):
            name = "huge"

            @property
            def precision(self):
                return Precision.S

            def launch_config(self):
                return LaunchConfig(128)

            def block_arrays(self):
                return BlockWork.pack([BlockWork(1e4, 1e3, count=400_000)])

        dev = Device(execute_numerics=False)
        rec = dev.launch(Huge())
        assert not rec.schedule.exact
        assert rec.blocks == 400_000


class TestCpuSecondaryPaths:
    def test_gemm_time_multithreaded(self):
        mkl = MklModel()
        t1 = mkl.gemm_time(512, 512, 512, "d", threads=1)
        t16 = mkl.gemm_time(512, 512, 512, "d", threads=16)
        assert t16 < t1

    def test_contended_rate_validation(self):
        mkl = MklModel()
        with pytest.raises(ValueError):
            mkl.contended_potrf_time(64, "d", active_cores=0)
        with pytest.raises(ValueError):
            mkl.contended_potrf_time(64, "d", active_cores=99)

    def test_contention_tiers(self):
        """Aggregate working sets past L3 slow each core further."""
        mkl = MklModel()
        lone = mkl.potrf_time(600, "d", threads=1)
        cached = mkl.contended_potrf_time(60, "d", active_cores=16)
        spilled = mkl.contended_potrf_time(600, "d", active_cores=16)
        assert spilled > lone  # contention never helps
        ratio_spilled = spilled / mkl.potrf_time(600, "d", threads=1)
        ratio_cached = cached / mkl.potrf_time(60, "d", threads=1)
        assert ratio_spilled > ratio_cached

    def test_busy_fraction(self):
        assert busy_fraction(np.array([1.0, 1.0]), 2.0) == pytest.approx(0.5)
        assert busy_fraction(np.array([1.0]), 0.0) == 0.0


class TestDeviceMisc:
    def test_elapsed_is_synchronize_alias(self):
        dev = Device()
        assert dev.elapsed() == dev.synchronize()

    def test_device_array_repr(self):
        dev = Device()
        arr = dev.alloc((2, 3), np.float32)
        assert "shape=(2, 3)" in repr(arr)

    def test_interval_duration(self):
        from repro.device import Interval

        assert Interval(1.0, 3.5, "x").duration == pytest.approx(2.5)
