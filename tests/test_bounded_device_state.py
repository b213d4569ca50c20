"""A long-lived device holds O(categories) timing state, not a log.

A started server's device launches for as long as it serves; anything
it kept per launch would grow without bound.
"""

import tracemalloc

from repro.core.batch import VBatch
from repro.device import Device, PlanExecutor
from repro.ops import OpOptions, get_op, plan_op

WARMUP, MEASURED = 1_000, 5_000
BOUND = 64 * 1024  # bytes; a per-launch log of ~290 B grows ~10x this


def test_replaying_a_cached_plan_holds_memory_flat():
    dev = Device(execute_numerics=False)
    batch = VBatch.allocate(dev, [48, 17, 33, 9, 64, 25], "d")
    potrf, options = get_op("potrf"), OpOptions()
    approach = potrf.choose_approach(batch.precision, 64, options)
    plan, _ = plan_op(dev, batch, 64, potrf, options, approach)
    executor = PlanExecutor(dev)
    tracemalloc.start()
    try:
        for _ in range(WARMUP):
            executor.execute(plan, batch)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(MEASURED):
            executor.execute(plan, batch)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    launches = MEASURED * len(plan.nodes)
    assert grown <= BOUND, f"{grown} B over {launches} launches"
