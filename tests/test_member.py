"""Tests for the ComputeMember backends (GPU + CPU cost models, chunks)."""

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.device import Device
from repro.device.member import (
    _GPU_COST_CACHE,
    CpuMember,
    GpuMember,
)
from repro.device.spec import K20X, K40C
from repro.errors import ArgumentError
from repro.hostblas import make_spd_batch, potrf
from repro.types import Precision
from repro import distributions as dist

D = Precision.D


class TestCapabilities:
    def test_gpu_capabilities(self):
        m = GpuMember(spec=K40C, execute_numerics=False, name="g0")
        caps = m.capabilities()
        assert caps.kind == "gpu" and caps.name == "g0"
        assert caps.parallel_lanes == K40C.num_sms
        assert caps.peak_gflops_fp64 > 0
        assert not caps.executes_numerics

    def test_cpu_capabilities(self):
        m = CpuMember(cores=8, name="c0")
        caps = m.capabilities()
        assert caps.kind == "cpu" and caps.parallel_lanes == 8
        assert caps.executes_numerics


class TestGpuCostModel:
    def test_estimate_positive_and_monotone(self):
        m = GpuMember(execute_numerics=False)
        small = m.estimate_cost(np.array([32, 48]), D, "fused")
        big = m.estimate_cost(np.full(200, 128), D, "fused")
        assert 0 < small < big

    def test_estimate_matches_simulator_relatively(self):
        """The calibrated fit must track the simulator it was probed on."""
        m = GpuMember(execute_numerics=False)
        sizes = dist.uniform_sizes(120, 200, seed=3)
        for approach in ("fused", "separated"):
            est = m.estimate_cost(sizes, D, approach)
            dev = Device(execute_numerics=False)
            batch = VBatch.allocate(dev, sizes, D)
            actual = potrf_vbatched_max(
                dev, batch, int(sizes.max()), OpOptions(approach=approach)
            ).elapsed
            assert abs(est - actual) / actual < 1.0, approach

    def test_auto_is_min_over_approaches(self):
        m = GpuMember(execute_numerics=False)
        sizes = np.array([240, 250, 256])
        auto = m.estimate_cost(sizes, D, "auto")
        assert auto == min(
            m.estimate_cost(sizes, D, "fused"), m.estimate_cost(sizes, D, "separated")
        )

    def test_unknown_approach_raises(self):
        m = GpuMember(execute_numerics=False)
        with pytest.raises(ArgumentError, match="unknown approach"):
            m.estimate_cost(np.array([32]), D, "bogus")

    def test_coefficients_cached_per_spec(self):
        # Single precision so no other test has warmed these keys.
        S = Precision.S
        a = GpuMember(execute_numerics=False)
        a.estimate_cost(np.array([64]), S, "fused")
        before = len(_GPU_COST_CACHE)
        b = GpuMember(execute_numerics=False)  # same spec+calibration
        b.estimate_cost(np.array([64]), S, "fused")
        assert len(_GPU_COST_CACHE) == before
        c = GpuMember(spec=K20X, execute_numerics=False)
        c.estimate_cost(np.array([64]), S, "fused")
        assert len(_GPU_COST_CACHE) == before + 1

    def test_choose_approach_honours_explicit_option(self):
        m = GpuMember(execute_numerics=False)
        sizes = np.array([16, 16, 16])
        assert m.choose_approach(sizes, D, OpOptions(approach="separated")) == "separated"
        assert m.choose_approach(sizes, D, OpOptions()) in ("fused", "separated")


class TestGpuChunk:
    def test_run_chunk_advances_clock_and_factors(self):
        mats = make_spd_batch([24, 40, 17, 33], D, seed=7)
        batch = VBatch.from_host(Device(), [m.copy() for m in mats])
        member = GpuMember(name="g0")
        idx = np.array([1, 3])
        run = member.run_chunk(batch, idx, OpOptions())
        assert run.count == 2 and run.max_n == 40 and run.kind == "gpu"
        assert np.all(run.infos == 0)
        assert member.now() > 0 and run.elapsed > 0
        for j in idx:
            L = np.tril(batch.matrix_view(int(j)))
            a0 = mats[int(j)]
            assert np.linalg.norm(L @ L.T - a0) / np.linalg.norm(a0) < 1e-13
        # Untouched matrices keep their source content.
        assert np.array_equal(batch.matrix_view(0), mats[0])

    def test_timing_plane_chunk_runs_without_numerics(self):
        sizes = np.array([64, 96, 128])
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, sizes, D)
        member = GpuMember(execute_numerics=False, name="g0")
        run = member.run_chunk(batch, np.arange(3), OpOptions())
        assert run.elapsed > 0 and np.all(run.infos == 0)
        assert run.launch_stats.executed_launches > 0

    def test_reset_clock(self):
        member = GpuMember(execute_numerics=False)
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, np.array([32]), D)
        member.run_chunk(batch, np.array([0]), OpOptions())
        assert member.synchronize() > 0
        member.reset_clock()
        assert member.synchronize() == 0.0


class TestCpuMember:
    def test_validation(self):
        with pytest.raises(ArgumentError, match="cores"):
            CpuMember(cores=0)
        with pytest.raises(ArgumentError, match="cores"):
            CpuMember(cores=999)
        with pytest.raises(ArgumentError, match="scheduling"):
            CpuMember(scheduling="bogus")

    def test_estimate_equals_executed_makespan(self):
        """The CPU estimate *is* the executed model — exact agreement."""
        member = CpuMember(cores=4, name="c0")
        sizes = dist.uniform_sizes(40, 128, seed=1)
        est = member.estimate_cost(sizes, D)
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, sizes, D)
        run = member.run_chunk(batch, np.arange(sizes.size), OpOptions())
        assert run.elapsed == est
        assert member.synchronize() == est

    def test_chunk_is_bit_exact_vs_hostblas(self):
        mats = make_spd_batch([19, 45, 32], D, seed=5)
        batch = VBatch.from_host(Device(), [m.copy() for m in mats])
        member = CpuMember(name="c0")
        run = member.run_chunk(batch, np.arange(3), OpOptions())
        assert np.all(run.infos == 0) and run.approach == "cpu-percore"
        for i, a0 in enumerate(mats):
            ref = a0.copy()
            assert potrf(ref, "l") == 0
            assert np.array_equal(batch.matrix_view(i), ref), f"matrix {i}"

    def test_choose_approach_is_cpu_percore(self):
        member = CpuMember()
        assert member.choose_approach(np.array([32]), D, OpOptions()) == "cpu-percore"

    def test_contention_pinning_matches_baseline_convention(self):
        """contention_cores pins the §IV-F full-machine charge."""
        # Contention only bites once matrices spill the shared cache.
        sizes = np.array([512, 512])
        free = CpuMember(name="a")  # contention = min(cores, batch) = 2
        pinned = CpuMember(contention_cores=16, name="b")
        assert pinned.estimate_cost(sizes, D) > free.estimate_cost(sizes, D)
