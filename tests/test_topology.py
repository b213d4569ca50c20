"""Tests for multi-device sharding: partitioners, DeviceGroup, merge."""

import numpy as np
import pytest

from repro import flops as _flops
from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.plan import PlanCache
from repro.device import Device, DeviceGroup, partition_sizes
from repro.errors import ArgumentError, BatchNumericalError
from repro.types import Precision
from repro import distributions as dist


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestPartitionSizes:
    @pytest.mark.parametrize("policy", ["flops", "round-robin", "contiguous"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_partition_is_exact_cover(self, policy, n_shards):
        sizes = dist.generate_sizes("uniform", 100, 256, seed=5)
        parts = partition_sizes(sizes, Precision.D, n_shards, policy)
        assert len(parts) == n_shards
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(sizes.size))
        for p in parts:
            assert np.all(np.diff(p) > 0) or p.size <= 1  # order preserved

    def test_round_robin_assignment(self):
        parts = partition_sizes(np.array([8, 8, 8, 8, 8]), Precision.D, 2, "round-robin")
        np.testing.assert_array_equal(parts[0], [0, 2, 4])
        np.testing.assert_array_equal(parts[1], [1, 3])

    def test_flops_policy_balances_load(self):
        sizes = dist.generate_sizes("uniform", 400, 256, seed=11)
        parts = partition_sizes(sizes, Precision.D, 4, "flops")
        loads = [
            sum(_flops.potrf_flops(int(n), Precision.D) for n in sizes[p]) for p in parts
        ]
        # Greedy LPT on 400 items: shares within a few percent of equal.
        assert max(loads) <= 1.05 * min(loads)

    def test_flops_beats_contiguous_on_sorted_sizes(self):
        sizes = np.sort(dist.generate_sizes("uniform", 200, 256, seed=2))[::-1].copy()
        flops_of = lambda p: sum(  # noqa: E731
            _flops.potrf_flops(int(n), Precision.D) for n in sizes[p]
        )
        lpt = max(flops_of(p) for p in partition_sizes(sizes, Precision.D, 4, "flops"))
        rr = max(flops_of(p) for p in partition_sizes(sizes, Precision.D, 4, "round-robin"))
        assert lpt <= rr

    def test_more_shards_than_matrices(self):
        parts = partition_sizes(np.array([16, 32]), Precision.D, 4, "flops")
        assert sum(p.size for p in parts) == 2
        assert sum(p.size == 0 for p in parts) == 2

    def test_validation(self):
        with pytest.raises(ArgumentError):
            partition_sizes(np.array([8]), Precision.D, 0)
        with pytest.raises(ArgumentError):
            partition_sizes(np.array([8]), Precision.D, 2, "bogus")


class TestDeviceGroup:
    def test_simulated_constructor(self):
        group = DeviceGroup.simulated(3, execute_numerics=False)
        assert len(group) == 3
        assert len({id(d) for d in group}) == 3
        assert all(not d.execute_numerics for d in group)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            DeviceGroup([])
        dev = Device(execute_numerics=False)
        with pytest.raises(ArgumentError):
            DeviceGroup([dev, dev])
        with pytest.raises(ArgumentError):
            DeviceGroup([dev], partition="bogus")
        with pytest.raises(ArgumentError):
            DeviceGroup.simulated(0)

    def test_group_synchronize_is_slowest_clock(self):
        group = DeviceGroup.simulated(2, execute_numerics=False)
        sizes = np.array([64] * 8)
        batch = VBatch.allocate(group.devices[0], sizes, "d")
        potrf_vbatched_max(group.devices[0], batch, 64, OpOptions())
        assert group.synchronize() == max(d.synchronize() for d in group)


class TestShardedExecution:
    def test_four_devices_beat_one_on_fig3_workload(self):
        """ISSUE acceptance (b): flops-balanced 4-device group wins."""
        sizes = dist.generate_sizes("uniform", 400, 256, seed=11)
        single = Device(execute_numerics=False)
        b1 = VBatch.allocate(single, sizes, "d")
        r1 = potrf_vbatched_max(single, b1, int(sizes.max()), OpOptions())
        group = DeviceGroup.simulated(4, execute_numerics=False, partition="flops")
        b4 = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        r4 = potrf_vbatched_max(
            b4.device, b4, int(sizes.max()), OpOptions(), devices=group
        )
        assert r4.elapsed < r1.elapsed
        assert r4.launch_stats.devices_used == 4
        assert r4.gflops > r1.gflops  # same flops, smaller makespan

    def test_sharded_numerics_match_single_device(self):
        rng = np.random.default_rng(0)
        sizes = dist.generate_sizes("uniform", 30, 80, seed=4)
        mats = [_spd(rng, int(n)) for n in sizes]
        single = Device()
        b1 = VBatch.from_host(single, [m.copy() for m in mats])
        potrf_vbatched_max(single, b1, int(sizes.max()), OpOptions())
        group = DeviceGroup.simulated(3)
        b3 = VBatch.from_host(Device(), [m.copy() for m in mats])
        res = potrf_vbatched_max(b3.device, b3, int(sizes.max()), OpOptions(), devices=group)
        assert res.failed_count == 0
        for i, a0 in enumerate(mats):
            L = np.tril(b3.matrix_view(i))
            assert np.linalg.norm(L @ L.T - a0) / np.linalg.norm(a0) < 1e-13

    def test_info_codes_map_back_to_global_indices(self):
        rng = np.random.default_rng(1)
        mats = [_spd(rng, 24) for _ in range(8)]
        bad = 5
        mats[bad] = -np.eye(24)  # negative definite: potf2 must flag it
        group = DeviceGroup.simulated(3, partition="round-robin")
        batch = VBatch.from_host(Device(), [m.copy() for m in mats])
        res = potrf_vbatched_max(batch.device, batch, 24, OpOptions(), devices=group)
        assert res.infos[bad] != 0
        assert np.all(res.infos[np.arange(8) != bad] == 0)

    def test_on_error_raise_propagates_from_shards(self):
        rng = np.random.default_rng(2)
        mats = [_spd(rng, 16) for _ in range(4)]
        mats[2] = -np.eye(16)
        group = DeviceGroup.simulated(2)
        batch = VBatch.from_host(Device(), mats)
        with pytest.raises(BatchNumericalError):
            potrf_vbatched_max(
                batch.device, batch, 16, OpOptions(on_error="raise"), devices=group
            )

    def test_single_device_group_matches_plain_path(self):
        sizes = dist.generate_sizes("uniform", 60, 128, seed=6)
        d1 = Device(execute_numerics=False)
        b1 = VBatch.allocate(d1, sizes, "d")
        r1 = potrf_vbatched_max(d1, b1, int(sizes.max()), OpOptions())
        d2 = Device(execute_numerics=False)
        b2 = VBatch.allocate(d2, sizes, "d")
        r2 = potrf_vbatched_max(
            d2, b2, int(sizes.max()), OpOptions(), devices=DeviceGroup([d2])
        )
        assert r2.elapsed == r1.elapsed
        assert r2.launch_stats.devices_used == 1

    def test_devices_accepts_plain_sequence(self):
        sizes = np.array([32] * 12)
        devs = [Device(execute_numerics=False) for _ in range(2)]
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        res = potrf_vbatched_max(batch.device, batch, 32, OpOptions(), devices=devs)
        assert res.launch_stats.devices_used == 2

    def test_plan_cache_reused_across_sharded_runs(self):
        sizes = dist.generate_sizes("uniform", 100, 128, seed=9)
        group = DeviceGroup.simulated(4, execute_numerics=False)
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        cache = PlanCache()
        r1 = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group, plan_cache=cache
        )
        assert cache.planner_calls == len(
            [p for p in group.partition_indices(sizes, batch.precision) if p.size]
        )
        calls_before = cache.planner_calls
        group.reset_clocks()  # same start times -> bit-identical replay
        r2 = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group, plan_cache=cache
        )
        assert cache.planner_calls == calls_before  # all shards hit
        assert r2.launch_stats.plan_cache_hit
        assert r2.elapsed == r1.elapsed

    def test_merged_launch_stats_cover_whole_batch(self):
        sizes = dist.generate_sizes("uniform", 50, 96, seed=8)
        group = DeviceGroup.simulated(2, execute_numerics=False)
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        res = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group
        )
        stats = res.launch_stats
        assert stats.executed_launches == stats.plan_nodes - stats.barriers
        assert stats.executed_launches > 0
        assert stats.devices_used == 2
