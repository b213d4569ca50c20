"""Tests for the launch-plan IR: builder, validation, cache semantics."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.fused import FusedDriver
from repro.core.plan import (
    AuxLaunch,
    Barrier,
    KernelLaunch,
    LaunchPlan,
    PlanBuilder,
    PlanCache,
    batch_fingerprint,
)
from repro.core.separated import SeparatedDriver
from repro.device import Device, PlanExecutor
from repro.errors import PlanError
from repro import distributions as dist


class _Stub:
    """Stands in for a kernel; plans never inspect kernel internals."""

    name = "stub"


def _timing_batch(seed=3, count=40, max_size=96):
    dev = Device(execute_numerics=False)
    sizes = dist.generate_sizes("uniform", count, max_size, seed=seed)
    return dev, VBatch.allocate(dev, sizes, "d"), sizes


class TestPlanBuilder:
    def test_nodes_indexed_in_emission_order(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        i0 = pb.aux(_Stub())
        i1 = pb.launch(_Stub(), tag="potf2")
        i2 = pb.barrier()
        plan = pb.build()
        assert (i0, i1, i2) == (0, 1, 2)
        assert isinstance(plan.nodes[0], AuxLaunch)
        assert isinstance(plan.nodes[1], KernelLaunch)
        assert isinstance(plan.nodes[2], Barrier)
        assert plan.nodes[1].tag == "potf2"
        assert plan.kernel_launches == 2  # aux is still a launch

    def test_streams_and_deps_recorded(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        a = pb.launch(_Stub(), stream=1)
        b = pb.launch(_Stub(), stream=2, after=(a,))
        plan = pb.build()
        assert plan.nodes[b].deps == (a,)
        assert plan.streams_used == (1, 2)

    def test_tagged_context_sets_default_tag(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        with pb.tagged("trsm"):
            i = pb.launch(_Stub())
            with pb.tagged("inner"):
                j = pb.launch(_Stub())
            k = pb.launch(_Stub())
        m = pb.launch(_Stub())
        plan = pb.build()
        assert [plan.nodes[x].tag for x in (i, j, k, m)] == [
            "trsm", "inner", "trsm", "kernel",
        ]

    def test_forward_dependency_rejected(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        pb.launch(_Stub(), after=(5,))
        with pytest.raises(PlanError):
            pb.build()

    def test_launch_without_kernel_rejected(self):
        plan = LaunchPlan(device=None, nodes=[KernelLaunch(index=0)])
        with pytest.raises(PlanError):
            plan.validate()

    def test_build_twice_rejected(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        pb.build()
        with pytest.raises(PlanError):
            pb.build()

    def test_plan_is_shape_only_in_either_device_mode(self):
        sizes = dist.generate_sizes("uniform", 12, 40, seed=2)
        for dev in (Device(), Device(execute_numerics=False)):
            batch = VBatch.allocate(dev, sizes, "d")
            plan = FusedDriver(dev).plan(batch, int(sizes.max()))
            ref = weakref.ref(batch)
            batch.free()
            del batch
            gc.collect()
            assert ref() is None  # the plan kept no reference to it
            assert plan.operands("any batch") == ("any batch", None)
            plan.close()


class TestPlanWorkspaces:
    def test_plan_owns_workspaces_until_close(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.workspace((16,), np.int64)
        plan = pb.build()
        used_before = dev.memory.used
        assert len(plan.workspaces) == 1
        misses_before = dev.pool.misses + dev.pool.hits
        plan.close()
        assert plan.closed and not plan.workspaces
        # The block went back to the pool: the next same-shape get is a hit.
        dev.pool.get((16,), np.int64)
        assert dev.pool.hits + dev.pool.misses == misses_before + 1
        assert dev.pool.hits >= 1
        assert dev.memory.used <= used_before  # pool retained, nothing leaked

    def test_one_operand_workspace_per_plan(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        ws = pb.operand_workspace((2, 4, 4), np.float64)
        with pytest.raises(PlanError):
            pb.operand_workspace((2, 4, 4), np.float64)
        plan = pb.build()
        assert plan.workspace is ws and ws in plan.workspaces
        assert plan.operands("b")[1] is ws.data
        plan.close()

    def test_close_is_idempotent(self):
        pb = PlanBuilder(Device(execute_numerics=False))
        pb.workspace((8,), np.int64)
        plan = pb.build()
        plan.close()
        plan.close()

    def test_abandon_releases_workspaces(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.workspace((8,), np.float64)
        pb.abandon()
        # Released: the same-bin get is served from the pool free list.
        dev.pool.get((8,), np.float64)
        assert dev.pool.hits >= 1


class TestBatchFingerprint:
    def test_equal_sizes_equal_fingerprint(self):
        dev, b1, sizes = _timing_batch()
        b2 = VBatch.allocate(dev, sizes.copy(), "d")
        assert batch_fingerprint(b1) == batch_fingerprint(b2)

    def test_different_sizes_differ(self):
        dev, b1, sizes = _timing_batch()
        other = sizes.copy()
        other[0] += 1
        b2 = VBatch.allocate(dev, other, "d")
        assert batch_fingerprint(b1) != batch_fingerprint(b2)

    def test_precision_matters(self):
        dev, b1, sizes = _timing_batch()
        b2 = VBatch.allocate(dev, sizes.copy(), "s")
        assert batch_fingerprint(b1) != batch_fingerprint(b2)


class TestPlanCache:
    def test_hit_and_miss_accounting(self):
        dev, batch, sizes = _timing_batch()
        cache = PlanCache()
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
        assert cache.get(key) is None
        plan = FusedDriver(dev).plan(batch, int(sizes.max()))
        cache.put(key, plan)
        assert cache.get(key) is plan
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_get_or_build_counts_planner_calls(self):
        dev, batch, sizes = _timing_batch()
        cache = PlanCache()
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
        build = lambda: FusedDriver(dev).plan(batch, int(sizes.max()))  # noqa: E731
        p1 = cache.get_or_build(key, dev, build)
        p2 = cache.get_or_build(key, dev, build)
        assert p1 is p2
        assert cache.planner_calls == 1

    def test_lru_eviction_closes_plans(self):
        dev = Device(execute_numerics=False)
        cache = PlanCache(max_plans=2)
        plans = []
        for i in range(3):
            pb = PlanBuilder(dev)
            pb.workspace((8,), np.int64)
            plan = pb.build()
            plans.append(plan)
            cache.put(("k", i), plan)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert plans[0].closed  # oldest evicted and released
        assert not plans[1].closed and not plans[2].closed

    def test_plan_served_for_other_batch_of_same_shape(self):
        dev = Device()  # numerics live: the batch binds at execute time
        rng = np.random.default_rng(0)
        mats = [np.eye(8) * 4 + rng.standard_normal((8, 8)) * 0.01 for _ in range(4)]
        mats = [(m + m.T) / 2 for m in mats]
        b1 = VBatch.from_host(dev, [m.copy() for m in mats])
        b2 = VBatch.from_host(dev, [2.0 * m for m in mats])
        cache = PlanCache()
        key = cache.key_for(dev, b1, 8, "fused", None)
        plan = FusedDriver(dev).plan(b1, 8)
        cache.put(key, plan)
        assert cache.key_for(dev, b2, 8, "fused", None) == key
        PlanExecutor(dev).execute(cache.get(key), b1)
        assert cache.get(key) is plan  # same key, other batch: a hit
        PlanExecutor(dev).execute(plan, b2)
        direct = VBatch.from_host(dev, [2.0 * m for m in mats])
        FusedDriver(dev).factorize(direct, 8)  # its own, uncached plan
        for i, m in enumerate(mats):
            assert np.array_equal(b2.matrix_view(i), direct.matrix_view(i))
            assert np.allclose(np.tril(b1.matrix_view(i)), np.linalg.cholesky(m), atol=1e-13)
        assert not b2.infos_dev.data.any()

    def test_clear_closes_everything(self):
        dev = Device(execute_numerics=False)
        cache = PlanCache()
        pb = PlanBuilder(dev)
        pb.workspace((8,), np.int64)
        plan = pb.build()
        cache.put(("k",), plan)
        cache.clear()
        assert plan.closed and len(cache) == 0

    def test_max_plans_validated(self):
        with pytest.raises(PlanError):
            PlanCache(max_plans=0)


class TestCachedReexecutionAcceptance:
    """ISSUE acceptance (a): a cached plan re-executes with zero planner calls."""

    def test_second_run_skips_planning_and_matches_timing(self):
        dev, batch, sizes = _timing_batch(seed=7, count=60, max_size=200)
        max_n = int(sizes.max())
        cache = PlanCache()
        opts = OpOptions()
        r1 = potrf_vbatched_max(dev, batch, max_n, opts, plan_cache=cache)
        assert cache.planner_calls == 1
        assert not r1.launch_stats.plan_cache_hit
        dev.reset_clock()
        r2 = potrf_vbatched_max(dev, batch, max_n, opts, plan_cache=cache)
        assert cache.planner_calls == 1  # zero new planner calls
        assert r2.launch_stats.plan_cache_hit
        assert r2.elapsed == r1.elapsed  # bit-identical replay
        # A fresh equal-size batch also hits: timing-only plans are unbound.
        b3 = VBatch.allocate(dev, sizes.copy(), "d")
        r3 = potrf_vbatched_max(dev, b3, max_n, opts, plan_cache=cache)
        assert cache.planner_calls == 1
        assert r3.elapsed == r1.elapsed

    def test_cache_keyed_on_options(self):
        dev, batch, sizes = _timing_batch()
        max_n = int(sizes.max())
        cache = PlanCache()
        potrf_vbatched_max(dev, batch, max_n, OpOptions(approach="fused"), plan_cache=cache)
        potrf_vbatched_max(
            dev, batch, max_n, OpOptions(approach="fused", etm="classic"), plan_cache=cache
        )
        assert cache.planner_calls == 2  # different options -> different plan

    def test_separated_planner_cacheable_too(self):
        dev, batch, sizes = _timing_batch()
        max_n = int(sizes.max())
        cache = PlanCache()
        opts = OpOptions(approach="separated")
        r1 = potrf_vbatched_max(dev, batch, max_n, opts, plan_cache=cache)
        dev.reset_clock()
        r2 = potrf_vbatched_max(dev, batch, max_n, opts, plan_cache=cache)
        assert cache.planner_calls == 1
        assert r2.elapsed == r1.elapsed

    def test_planner_plan_does_not_touch_clock(self):
        dev, batch, sizes = _timing_batch()
        t0 = dev.synchronize()
        FusedDriver(dev).plan(batch, int(sizes.max())).close()
        SeparatedDriver(dev).plan(batch, int(sizes.max())).close()
        assert dev.synchronize() == t0


class TestPlanCacheThreadSafety:
    """The serving worker and submitters share one cache; it must hold
    up under concurrent get_or_build/evict traffic."""

    def test_concurrent_get_or_build_builds_once(self):
        import threading

        dev, batch, sizes = _timing_batch()
        cache = PlanCache()
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
        build = lambda: FusedDriver(dev).plan(batch, int(sizes.max()))  # noqa: E731
        plans, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                for _ in range(20):
                    plans.append(cache.get_or_build(key, dev, build))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.planner_calls == 1  # the race never double-builds
        assert len({id(p) for p in plans}) == 1
        assert len(cache) == 1

    def test_concurrent_distinct_keys(self):
        import threading

        dev = Device(execute_numerics=False)
        cache = PlanCache(max_plans=64)
        errors = []

        def worker(tid):
            try:
                for i in range(10):
                    sizes = dist.generate_sizes("uniform", 10, 32 + tid, seed=i)
                    batch = VBatch.allocate(dev, sizes, "d")
                    key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
                    build = lambda: FusedDriver(dev).plan(batch, int(sizes.max()))  # noqa: B023,E731
                    cache.get_or_build(key, dev, build)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.hits + cache.misses == 40

    def test_distinct_keys_build_concurrently(self):
        import threading

        dev = Device(execute_numerics=False)
        cache = PlanCache()
        # Each build waits for the other: a lock held across build()
        # would serialize them and break the barrier.
        inside = threading.Barrier(2, timeout=10)
        errors = []

        def worker(seed):
            try:
                sizes = dist.generate_sizes("uniform", 10, 48, seed=seed)
                batch = VBatch.allocate(dev, sizes, "d")
                key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)

                def build():
                    inside.wait()
                    return FusedDriver(dev).plan(batch, int(sizes.max()))

                cache.get_or_build(key, dev, build)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert (cache.planner_calls, cache.misses, cache.hits, len(cache)) == (2, 2, 0, 2)

    def test_stress_mixed_keys_build_each_key_once(self):
        import sys
        import threading

        dev = Device(execute_numerics=False)
        cache = PlanCache(max_plans=64)
        batches = [
            VBatch.allocate(dev, dist.generate_sizes("uniform", 6, 24, seed=s), "d")
            for s in range(3)
        ]
        keys = [cache.key_for(dev, b, int(b.sizes_host.max()), "fused", None) for b in batches]
        errors = []
        calls_per_thread = 30

        def worker(tid):
            try:
                for i in range(calls_per_thread):
                    j = (tid + i) % len(batches)
                    b = batches[j]
                    cache.get_or_build(
                        keys[j], dev, lambda b=b: FusedDriver(dev).plan(b, int(b.sizes_host.max()))
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # Each key is built exactly once; every call is counted once.
        assert cache.planner_calls == cache.misses == len(keys)
        assert cache.hits + cache.misses == 8 * calls_per_thread

    def test_same_key_waits_for_the_one_build(self):
        import threading

        dev, batch, sizes = _timing_batch()
        cache = PlanCache()
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
        started, release = threading.Event(), threading.Event()

        def slow_build():
            started.set()
            release.wait(10)
            return FusedDriver(dev).plan(batch, int(sizes.max()))

        def never_called():  # pragma: no cover - failure path
            raise AssertionError("a second build ran for an in-flight key")

        plans = []
        owner = threading.Thread(target=lambda: plans.append(cache.get_or_build(key, dev, slow_build)))
        owner.start()
        assert started.wait(10)
        waiter = threading.Thread(target=lambda: plans.append(cache.get_or_build(key, dev, never_called)))
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive()  # parked on the in-flight build
        release.set()
        owner.join(10)
        waiter.join(10)
        assert not owner.is_alive() and not waiter.is_alive()
        assert len(plans) == 2 and plans[0] is plans[1]
        assert (cache.planner_calls, cache.misses, cache.hits) == (1, 1, 1)

    def test_failed_build_lets_the_next_caller_build(self):
        dev, batch, sizes = _timing_batch()
        cache = PlanCache()
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)

        def broken():
            raise RuntimeError("planner failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build(key, dev, broken)
        plan = cache.get_or_build(key, dev, lambda: FusedDriver(dev).plan(batch, int(sizes.max())))
        assert plan is cache.get(key)
        assert cache.planner_calls == 2


class TestPlanCacheEvict:
    def _cached_plan(self, cache, dev, seed):
        sizes = dist.generate_sizes("uniform", 10, 64, seed=seed)
        batch = VBatch.allocate(dev, sizes, "d")
        key = cache.key_for(dev, batch, int(sizes.max()), "fused", None)
        return cache.get_or_build(
            key, dev, lambda: FusedDriver(dev).plan(batch, int(sizes.max()))
        )

    def test_evict_one_device_leaves_the_other(self):
        d1 = Device(execute_numerics=False)
        d2 = Device(execute_numerics=False)
        cache = PlanCache()
        p1 = self._cached_plan(cache, d1, seed=0)
        p2 = self._cached_plan(cache, d2, seed=1)
        assert cache.evict(device=d1) == 1
        assert p1.closed and not p2.closed
        assert len(cache) == 1
        assert cache.evictions == 1

    def test_evict_all(self):
        dev = Device(execute_numerics=False)
        cache = PlanCache()
        plans = [self._cached_plan(cache, dev, seed=s) for s in range(3)]
        assert cache.evict() == 3
        assert all(p.closed for p in plans)
        assert len(cache) == 0
        assert cache.evictions == 3

    def test_evict_unknown_device_is_a_noop(self):
        dev = Device(execute_numerics=False)
        cache = PlanCache()
        self._cached_plan(cache, dev, seed=0)
        assert cache.evict(device=Device(execute_numerics=False)) == 0
        assert len(cache) == 1
