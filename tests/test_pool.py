"""Tests for the workspace memory pool and the extra device presets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import (
    Device,
    GlobalMemory,
    K20X,
    K40C,
    TITAN_BLACK,
    WorkspacePool,
)
from repro.errors import DeviceOutOfMemory
from repro.types import precision_info


class TestWorkspacePool:
    def test_miss_then_hit(self):
        pool = WorkspacePool(GlobalMemory(1 << 20))
        a = pool.get((10, 10), np.float64)
        assert pool.misses == 1 and pool.hits == 0
        pool.release(a)
        b = pool.get((12, 12), np.float64)  # same 2^k bin (800 B -> 1024 / 1152 -> 2048?)
        # 10x10 f64 = 800 B -> bin 1024; 12x12 = 1152 -> bin 2048: miss.
        assert pool.misses == 2
        pool.release(b)
        c = pool.get((11, 11), np.float64)  # 968 B -> bin 1024: reuses a's block
        assert pool.hits == 1
        assert c.data.shape == (11, 11)
        assert np.all(c.data == 0)

    def test_reuse_is_zeroed(self):
        pool = WorkspacePool(GlobalMemory(1 << 20))
        a = pool.get((8,), np.float64)
        a.data[...] = 7.0
        pool.release(a)
        b = pool.get((8,), np.float64)
        assert np.all(b.data == 0)

    def test_dtype_separation(self):
        pool = WorkspacePool(GlobalMemory(1 << 20))
        a = pool.get((64,), np.float64)
        pool.release(a)
        b = pool.get((128,), np.float32)  # same byte bin, different dtype
        assert pool.hits == 0 and pool.misses == 2

    def test_memory_stays_charged_until_trim(self):
        mem = GlobalMemory(1 << 20)
        pool = WorkspacePool(mem)
        a = pool.get((100,), np.float64)
        used = mem.used
        pool.release(a)
        assert mem.used == used  # retained
        assert pool.trim() == 1
        assert mem.used == 0

    def test_release_foreign_array_rejected(self):
        mem = GlobalMemory(1 << 20)
        pool = WorkspacePool(mem)
        foreign = mem.alloc((4,), np.float64)
        with pytest.raises(ValueError, match="not allocated from this pool"):
            pool.release(foreign)

    def test_pool_respects_device_capacity(self):
        pool = WorkspacePool(GlobalMemory(1024))
        with pytest.raises(DeviceOutOfMemory):
            pool.get((1024,), np.float64)

    def test_device_has_pool(self):
        dev = Device()
        a = dev.pool.get((16, 16), np.float64)
        dev.pool.release(a)
        b = dev.pool.get((16, 16), np.float64)
        assert dev.pool.hits == 1

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_get_release_cycles(self, shapes):
        pool = WorkspacePool(GlobalMemory(1 << 26))
        live = []
        for i, shape in enumerate(shapes):
            arr = pool.get(shape, np.float64)
            assert arr.data.shape == shape
            assert np.all(arr.data == 0)
            live.append(arr)
            if i % 2 == 1:
                pool.release(live.pop())
        for arr in live:
            pool.release(arr)
        assert pool.pooled_blocks == pool.misses  # every alloc is pooled now
        pool.trim()
        assert pool.memory.used == 0


class TestDevicePresets:
    def test_presets_distinct(self):
        assert K20X.num_sms == 14
        assert TITAN_BLACK.clock_hz > K40C.clock_hz
        assert K20X.global_mem_bytes < K40C.global_mem_bytes

    @pytest.mark.parametrize("spec", [K20X, TITAN_BLACK])
    def test_peaks_scale_with_spec(self, spec):
        ratio = spec.peak_flops(precision_info("s")) / K40C.peak_flops(precision_info("s"))
        expected = (spec.num_sms * spec.clock_hz) / (K40C.num_sms * K40C.clock_hz)
        assert ratio == pytest.approx(expected)

    def test_devices_run_the_framework(self):
        """The framework is device-agnostic: same code, different spec."""
        from repro.core import OpOptions, VBatch, potrf_vbatched
        from repro.distributions import uniform_sizes

        results = {}
        for spec in (K20X, K40C, TITAN_BLACK):
            dev = Device(spec=spec, execute_numerics=False)
            b = VBatch.allocate(dev, uniform_sizes(300, 256, seed=0), "d")
            dev.reset_clock()
            results[spec.name] = potrf_vbatched(dev, b, OpOptions()).gflops
        # Faster clock + equal SMs -> Titan Black ahead of the K40c;
        # fewer, slower SMs -> K20X behind.
        assert results[TITAN_BLACK.name] > results[K40C.name] > results[K20X.name]


class TestDriverPoolHygiene:
    def test_drivers_release_workspaces_on_success(self):
        from repro.ops import OpOptions
        from repro.core.interface import potrf_vbatched_max
        from repro.core.batch import VBatch
        from repro.distributions import uniform_sizes

        dev = Device(execute_numerics=False)
        sizes = uniform_sizes(100, 128, seed=0)
        for approach in ("fused", "separated"):
            b = VBatch.allocate(dev, sizes, "d")
            potrf_vbatched_max(dev, b, 128, OpOptions(approach=approach))
            # Everything the driver took from the pool went back.
            assert dev.pool.pooled_blocks == dev.pool.misses
        # Second run of the same shape is all pool hits for workspaces.
        hits_before = dev.pool.hits
        b = VBatch.allocate(dev, sizes, "d")
        potrf_vbatched_max(dev, b, 128, OpOptions(approach="fused"))
        assert dev.pool.hits > hits_before

    def test_workspaces_released_even_on_failure(self):
        from repro.core.fused import FusedDriver
        from repro.core.batch import VBatch

        dev = Device(execute_numerics=False)
        b = VBatch.allocate(dev, [8], "d")
        with pytest.raises(Exception):
            # nb=32 with an absurd max_n -> fused kernel rejects the
            # launch mid-sweep; the pool must still get its blocks back.
            FusedDriver(dev, nb=32, sorting=False).factorize(b, 2000)
        assert dev.pool.pooled_blocks == dev.pool.misses
