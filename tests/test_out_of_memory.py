"""A batch that runs out of device memory leaves the device as it found it.

Numerics-on batches allocate one buffer per matrix, then the metadata
arrays; an out-of-memory partway must free what was already allocated,
so the device can take the next batch.  The same holds for a sharded
run whose later shard does not fit, and for a served batch.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.device import K40C, Device, DeviceGroup
from repro.errors import ArgumentError, DeviceOutOfMemory
from repro.hostblas import cholesky_residual, make_spd_batch
from repro.ops.driver import run_op_vbatched
from repro.serving import BatchServer

SMALL = dataclasses.replace(K40C, global_mem_bytes=10_000_000)
OVERSIZE = [100] * 200  # 16 MB of order-100 doubles: about 125 fit in 10 MB


def _memory(dev, trim=False):
    if trim:  # drop the blocks plans returned to the workspace pool
        dev.pool.trim()
    return dev.memory.used, dev.memory.live_allocations


def _factor_small_batch(dev):
    """The device still works: a small batch factors correctly."""
    mats = make_spd_batch([5, 9, 3], seed=1)
    batch = VBatch.from_host(dev, mats)
    result = run_op_vbatched(dev, batch, 9, "potrf")
    assert not result.infos.any()
    for a, f in zip(mats, batch.download_matrices()):
        assert cholesky_residual(a, f) < 1e-13
    batch.free()


@pytest.mark.parametrize("make", ["from_host", "allocate"])
def test_oversize_batch_frees_its_partial_allocations(make):
    dev = Device(spec=SMALL)
    held = dev.alloc((1000,), np.float64)  # other tenants' residue stays
    before = _memory(dev)
    with pytest.raises(DeviceOutOfMemory):
        if make == "from_host":
            VBatch.from_host(dev, [np.eye(n) for n in OVERSIZE])
        else:
            VBatch.allocate(dev, OVERSIZE)
    assert _memory(dev) == before
    _factor_small_batch(dev)
    held.free()
    assert _memory(dev, trim=True) == (0, 0)


def test_metadata_out_of_memory_frees_the_matrices():
    # The buffers fit exactly; the first metadata array does not.
    sizes = [10, 20]
    dev = Device(spec=dataclasses.replace(K40C, global_mem_bytes=8 * (100 + 400)))
    with pytest.raises(DeviceOutOfMemory):
        VBatch.allocate(dev, sizes)
    assert _memory(dev) == (0, 0)


def test_rejected_ldas_free_the_matrices():
    dev = Device()
    with pytest.raises(ArgumentError):
        VBatch.allocate(dev, [4, 8], ldas=[4, 7])
    assert _memory(dev) == (0, 0)


def test_sharded_run_frees_earlier_shards_when_a_later_one_does_not_fit():
    roomy, small = Device(), Device(spec=dataclasses.replace(K40C, global_mem_bytes=1000))
    source = VBatch.from_host(Device(), make_spd_batch([16] * 8, seed=2))
    with pytest.raises(DeviceOutOfMemory):
        run_op_vbatched(source.device, source, 16, "potrf", devices=DeviceGroup([roomy, small]))
    assert _memory(roomy, trim=True) == _memory(small, trim=True) == (0, 0)


def test_server_fails_the_oversize_batch_and_serves_the_next_request():
    dev = Device(spec=SMALL)
    server = BatchServer(dev, policy="fifo", max_batch=len(OVERSIZE))
    futures = server.submit_many(make_spd_batch(OVERSIZE, seed=3))
    with pytest.raises(DeviceOutOfMemory):
        server.pump(force=True)
    for f in futures:
        with pytest.raises(DeviceOutOfMemory):
            f.result(timeout=0)
    assert _memory(dev, trim=True) == (0, 0)

    a = make_spd_batch([100], seed=4)[0]
    future = server.submit(a)
    assert server.pump(force=True) == 1
    resp = future.result(timeout=0)
    assert resp.ok and cholesky_residual(a, resp.factor) < 1e-13
