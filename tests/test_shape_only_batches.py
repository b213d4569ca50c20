"""Shape-only batches: timing-only runs hold no payloads.

A batch on a timing-only device, and a sharded run's payload-free
shard, keeps sizes, ldas and precision plus one accounting allocation
for its payload bytes.  The device must not be able to tell: memory
use, peak, out-of-memory and the transfer timeline are what per-matrix
uploads give.  The timing request streams are views of one zero block,
and serve the same simulated numbers as fresh zero matrices.
"""

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.core.plan import PlanCache
from repro.device import Device
from repro.errors import DeviceOutOfMemory
from repro.ops import OpOptions
from repro.ops.driver import run_op_vbatched, sub_batch
from repro.serving import BatchServer
from repro.serving.loadgen import _bench_matrices, closed_loop

SIZES = [7, 0, 33, 1, 16, 33]


def _per_matrix(dev, sizes, ldas=None, upload=True):
    """What per-matrix buffers charge: one allocation (plus, for an
    upload, one ``n x n`` transfer) per matrix, then the metadata."""
    ldas = sizes if ldas is None else ldas
    for n, lda in zip(sizes, ldas):
        if upload:
            dev.upload(np.zeros((n, n)))
        else:
            dev.alloc((max(lda, 1), n), np.float64)
    for _ in range(3):
        dev.alloc((len(sizes),), np.int64)


def _device_state(dev):
    return (
        dev.memory.used,
        dev.memory.peak_used,
        [(iv.start, iv.end, iv.category) for iv in dev.timeline.intervals],
        dev.host_time,
        dev.default_stream.ready_time,
    )


@pytest.mark.parametrize("make", ["from_host", "allocate", "allocate-lda", "shard"])
def test_shape_only_batch_matches_per_matrix_buffers(make):
    numerics = make == "shard"  # a shard is shape-only on any device
    dev, ref = Device(execute_numerics=numerics), Device(execute_numerics=numerics)
    dev.memory.used = ref.memory.used = 1000  # other tenants' residue
    ldas = [n + 5 for n in SIZES] if make == "allocate-lda" else None
    if make == "from_host":
        batch = VBatch.from_host(dev, _bench_matrices(SIZES))
    elif make == "shard":
        source = VBatch.from_host(Device(), [np.eye(n) for n in SIZES])
        batch = sub_batch(source, np.arange(len(SIZES)), dev, payload=False)
    else:
        batch = VBatch.allocate(dev, SIZES, "d", ldas=ldas)
    _per_matrix(ref, SIZES, ldas, upload=make in ("from_host", "shard"))

    assert batch.matrices == [] and batch.payload is not None
    assert dev.memory.live_allocations == 4  # payload + sizes/ldas/infos
    assert _device_state(dev) == _device_state(ref)
    assert batch.total_bytes == ref.memory.used - 1000 - 3 * 8 * len(SIZES)
    batch.free()
    assert dev.memory.used == 1000 and dev.memory.live_allocations == 0


@pytest.mark.parametrize("slack", [0, -1])
def test_out_of_memory_at_the_per_matrix_total(slack):
    dev, ref = Device(execute_numerics=False), Device(execute_numerics=False)
    _per_matrix(ref, SIZES)
    dev.memory.capacity = ref.memory.capacity = ref.memory.used + slack
    ref.memory.free_all()

    def per_matrix():
        _per_matrix(ref, SIZES)

    def shape_only():
        VBatch.from_host(dev, _bench_matrices(SIZES))

    if slack < 0:
        for make in (per_matrix, shape_only):
            with pytest.raises(DeviceOutOfMemory):
                make()
    else:
        per_matrix()
        shape_only()
        assert dev.memory.used == ref.memory.used == dev.memory.capacity


def test_bench_matrices_are_views_of_one_read_only_block():
    sizes = [5, 12, 3, 12, 1]
    mats = _bench_matrices(sizes)
    base = mats[0].base
    assert base.shape == (12, 12) and not base.flags.writeable
    for m, n in zip(mats, sizes):
        assert m.base is base and m.shape == (n, n) and not m.flags.writeable
        assert m.nbytes == n * n * 8 and not m.any()


def _sim_fields(snapshot):
    """A metrics snapshot without its host wall-clock fields."""
    if not isinstance(snapshot, dict):
        return snapshot
    return {k: _sim_fields(v) for k, v in snapshot.items() if "wall" not in k}


def test_closed_loop_over_views_matches_fresh_zero_matrices():
    sizes = np.random.default_rng(5).integers(1, 97, size=150)
    snapshots = []
    for stream in (_bench_matrices(sizes), [np.zeros((n, n)) for n in sizes]):
        server = BatchServer(
            device=Device(execute_numerics=False), policy="greedy-window",
            max_batch=16, plan_cache=PlanCache(max_plans=64),
        )
        responses = closed_loop(server, stream, concurrency=32)
        server.shutdown(drain=True)
        assert len(responses) == len(sizes)
        snapshots.append(_sim_fields(server.metrics.snapshot()))
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("op", ["potrf", "getrf"])
def test_one_plan_for_equal_sizes_whatever_the_ldas(op):
    """The plan-cache key holds shapes only: an lda-padded batch reuses
    the exact-lda batch's plan, and each answers as its own direct call."""
    rng = np.random.default_rng(8)
    mats = []
    for n in SIZES:
        a = rng.standard_normal((n, n))
        mats.append(a @ a.T + n * np.eye(n) if op == "potrf" else a + n * np.eye(n))

    def batch_on(dev, padded):
        ldas = [n + 3 for n in SIZES] if padded else None
        batch = VBatch.allocate(dev, SIZES, "d", ldas=ldas)
        for i, m in enumerate(mats):
            batch.matrices[i].data[...] = -777.0
            batch.matrix_view(i)[...] = m
        return batch

    dev, cache = Device(), PlanCache()
    served = []
    for padded in (False, True):
        batch = batch_on(dev, padded)
        result = run_op_vbatched(dev, batch, None, op, OpOptions(), plan_cache=cache)
        served.append((batch, {k: np.copy(v) for k, v in result.outputs.items()}))
    assert cache.planner_calls == 1 and len(cache) == 1

    for padded, (batch, outputs) in zip((False, True), served):
        direct_dev = Device()
        direct = batch_on(direct_dev, padded)
        want = run_op_vbatched(direct_dev, direct, None, op, OpOptions())
        for got, exp in zip(batch.matrices, direct.matrices):
            assert np.array_equal(got.data, exp.data)
        assert outputs.keys() == want.outputs.keys()
        for key in outputs:
            assert np.array_equal(outputs[key], want.outputs[key])
