"""Multi-device sharding: scale one vbatched workload across N GPUs.

Run:  python examples/multi_device_sharding.py

The plan/execute split turns multi-GPU batched factorization into a
partitioning problem: a :class:`DeviceGroup` splits the batch with a
flops-balanced partitioner, executes one launch plan per device
concurrently, and merges the results.  The script sweeps the Fig 3
uniform workload over 1/2/4/8 simulated K40c devices, then shows the
plan cache eliminating planning work on repeated sweeps.
"""

from repro import Device, DeviceGroup, OpOptions, PlanCache, VBatch
from repro.core.interface import potrf_vbatched_max
from repro.distributions import uniform_sizes


def main():
    sizes = uniform_sizes(batch_count=400, max_size=256, seed=11)
    print(f"workload: {sizes.size} matrices, sizes {sizes.min()}..{sizes.max()} (fp64)\n")

    # -- makespan vs device count (timing-only sweep) -------------------
    base = None
    print("devices   makespan      aggregate     speedup")
    for n_dev in (1, 2, 4, 8):
        group = DeviceGroup.simulated(n_dev, execute_numerics=False, partition="flops")
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        res = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group
        )
        base = base or res.elapsed
        print(f"  {n_dev:4d}   {res.elapsed * 1e3:8.4f} ms {res.gflops:9.1f} Gflop/s"
              f"   {base / res.elapsed:5.2f}x")

    # -- plan caching on the hot path -----------------------------------
    cache = PlanCache()
    group = DeviceGroup.simulated(4, execute_numerics=False)
    for _ in range(5):
        batch = VBatch.allocate(Device(execute_numerics=False), sizes, "d")
        potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(),
            devices=group, plan_cache=cache,
        )
        batch.free()
    print(f"\n5 repeated sweeps on 4 devices: planner ran {cache.planner_calls} times "
          f"(hit rate {cache.hit_rate:.0%})")
    assert cache.planner_calls == 4  # one plan per shard, built once, replayed 4x


if __name__ == "__main__":
    main()
