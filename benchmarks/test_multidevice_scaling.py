"""Multi-device sharding sweep: speedup of a DeviceGroup vs device count.

The paper's experiments are single-K40c; the plan/execute split makes
the multi-GPU extension a partitioning problem.  This sweep factorizes
the Fig 3 uniform workload on groups of 1, 2, 4 and 8 simulated K40c
devices under the flops-balanced partitioner and reports the makespan
speedup, plus the plan-cache hit rate of a repeated sweep.
"""

import numpy as np

from repro.core import OpOptions, PlanCache, VBatch
from repro.core.interface import potrf_vbatched_max
from repro.device import Device, DeviceGroup
from repro.distributions import uniform_sizes

DEVICE_COUNTS = (1, 2, 4, 8)


def _sweep(sizes, counts=DEVICE_COUNTS, partition="flops"):
    rows = []
    for n_dev in counts:
        group = DeviceGroup.simulated(n_dev, execute_numerics=False, partition=partition)
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        res = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group
        )
        rows.append((n_dev, res.elapsed, res.gflops))
    return rows


def test_speedup_vs_device_count(benchmark):
    sizes = uniform_sizes(400, 256, seed=11)
    rows = benchmark.pedantic(
        lambda: _sweep(sizes), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    base = rows[0][1]
    for n_dev, elapsed, gflops in rows:
        print(f"  devices={n_dev}: {elapsed * 1e3:8.4f} ms  {gflops:8.1f} Gflop/s  "
              f"speedup {base / elapsed:5.2f}x")
    elapsed_by_count = {n: e for n, e, _ in rows}
    # More devices never slow the batch down, and 4 visibly beat 1.
    assert elapsed_by_count[2] <= elapsed_by_count[1]
    assert elapsed_by_count[4] < elapsed_by_count[1]
    assert elapsed_by_count[8] <= elapsed_by_count[4] * 1.05
    assert elapsed_by_count[1] / elapsed_by_count[4] > 1.5


def test_partition_policies_on_skewed_batch(benchmark):
    """On a size-sorted batch every policy must stay flops-balanced;
    greedy LPT achieves the tightest load ratio of the three."""
    from repro import flops as _flops
    from repro.device import partition_sizes
    from repro.types import Precision

    sizes = np.sort(uniform_sizes(400, 256, seed=11))[::-1].copy()

    def run():
        out = {}
        for policy in ("flops", "round-robin", "contiguous"):
            elapsed = _sweep(sizes, counts=(4,), partition=policy)[0][1]
            parts = partition_sizes(sizes, Precision.D, 4, policy)
            loads = [
                sum(_flops.potrf_flops(int(n), Precision.D) for n in sizes[p])
                for p in parts
            ]
            out[policy] = (elapsed, max(loads) / min(loads))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for policy, (elapsed, ratio) in out.items():
        print(f"  {policy:12s}: {elapsed * 1e3:8.4f} ms  load ratio {ratio:.3f}")
    for elapsed, ratio in out.values():
        assert ratio < 1.10  # every policy keeps shards within 10% flops
    assert out["flops"][1] <= min(r for _, r in out.values()) + 1e-12
    best = min(e for e, _ in out.values())
    assert all(e <= 1.25 * best for e, _ in out.values())


def test_plan_cache_hit_rate_on_repeated_sweep(benchmark):
    """Figure-harness hot path: repeated equal-size batches re-serve
    every shard plan from the cache."""
    sizes = uniform_sizes(400, 256, seed=11)

    def run():
        cache = PlanCache()
        group = DeviceGroup.simulated(4, execute_numerics=False)
        for _ in range(5):
            batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
            potrf_vbatched_max(
                batch.device, batch, int(sizes.max()), OpOptions(),
                devices=group, plan_cache=cache,
            )
            batch.free()
        return cache

    cache = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print(f"\n  planner_calls={cache.planner_calls} hit_rate={cache.hit_rate:.2f}")
    assert cache.planner_calls == 4  # one plan per shard, built once
    assert cache.hit_rate >= 0.8  # 4 misses then 16 hits
