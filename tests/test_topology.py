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
from repro.observability import Track
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


# ----------------------------------------------------------------------
# One functional pass per sharded batch
# ----------------------------------------------------------------------
SIZES = [37, 5, 22, 16, 9, 30, 12, 3, 26, 18, 7, 14]


def _op_matrices(op, sizes, seed):
    """Inputs for ``op``; a POTRF/LU batch gets one matrix that fails."""
    rng = np.random.default_rng(seed)
    mats = []
    for n in sizes:
        a = rng.standard_normal((n, n))
        mats.append(a @ a.T + n * np.eye(n) if op == "potrf" else a)
    if op == "potrf":
        mats[2] = -np.eye(sizes[2])  # not SPD: info > 0
    elif op == "getrf":
        mats[2][:, 1] = 0.0  # exactly singular: info > 0
    return mats


def _slow_jacobi_matrix():
    """A 16 x 16 perturbed Hilbert matrix whose Jacobi SVD needs 8
    sweeps, one more than ``default_svd_sweeps(16)``."""
    rng = np.random.default_rng(6)
    h = 1.0 / (np.arange(16)[:, None] + np.arange(16)[None, :] + 1)
    return h * (1 + 0.1 * rng.standard_normal((16, 16)))


def _run_op(op, mats, devices=None):
    from repro.ops.driver import run_op_vbatched

    dev = Device()
    batch = VBatch.from_host(dev, [m.copy() for m in mats])
    max_n = max(m.shape[0] for m in mats)
    result = run_op_vbatched(dev, batch, max_n, op, OpOptions(), devices=devices)
    return [batch.matrix_view(i).copy() for i in range(len(mats))], result


def _assert_bitwise(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_bitwise(a[key], b[key])
    else:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


class TestShardedNumericsAreSingleDevice:
    """A sharded numerics-on run returns the single-device answer, bit for bit."""

    @pytest.mark.parametrize("op", ["potrf", "getrf", "geqrf", "gesvj"])
    @pytest.mark.parametrize(
        "make_group",
        [lambda: DeviceGroup.simulated(2),
         lambda: DeviceGroup.simulated(3, partition="round-robin")],
        ids=["flops-2", "round-robin-3"],
    )
    def test_factors_infos_and_outputs_match(self, op, make_group):
        mats = _op_matrices(op, SIZES, seed=len(op))
        factors1, r1 = _run_op(op, mats)
        factors_g, rg = _run_op(op, mats, devices=make_group())
        assert rg.meta["shards"] > 1
        for f1, fg in zip(factors1, factors_g):
            _assert_bitwise(f1, fg)
        _assert_bitwise(r1.infos, rg.infos)
        _assert_bitwise(r1.outputs, rg.outputs)
        if op in ("potrf", "getrf"):
            assert rg.infos[2] > 0 and np.count_nonzero(rg.infos) == 1

    def test_gesvj_sweep_budget_is_the_whole_batch(self):
        # Round-robin over 3 devices puts the slow 16 x 16 matrix on a
        # shard whose largest order is 16: a shard-sized budget would
        # stop its sweeps one short of convergence.
        from repro.flops import default_svd_sweeps

        rng = np.random.default_rng(100)
        mats = [rng.standard_normal((n, n)) for n in (64, 16, 8, 48, 12, 6)]
        mats[1] = _slow_jacobi_matrix()
        factors1, r1 = _run_op("gesvj", mats)
        group = DeviceGroup.simulated(3, partition="round-robin")
        assert [list(p) for p in group.partition_indices(
            np.array([m.shape[0] for m in mats]), Precision.D, routine="gesvj"
        )] == [[0, 3], [1, 4], [2, 5]]
        factors_g, rg = _run_op("gesvj", mats, devices=group)
        assert r1.outputs["sweeps_done"][1] > default_svd_sweeps(16)
        for f1, fg in zip(factors1, factors_g):
            _assert_bitwise(f1, fg)
        _assert_bitwise(r1.outputs, rg.outputs)

    @pytest.mark.parametrize("op", ["posv", "gesv"])
    def test_served_solves_match(self, op):
        from repro.serving import BatchServer

        rng = np.random.default_rng(7)
        problems = []
        for n in (24, 21, 23, 31, 27, 22, 28, 26):  # one window
            a = rng.standard_normal((n, n))
            problems.append((a @ a.T + n * np.eye(n) if op == "posv" else a,
                             rng.standard_normal(n)))

        def serve(**where):
            server = BatchServer(policy="cross-op", max_batch=64, **where)
            futures = [server.submit(a.copy(), b.copy(), op=op) for a, b in problems]
            while server.pump(force=True):
                pass
            server.shutdown(drain=True)
            return [f.result(timeout=60.0) for f in futures]

        single = serve()
        sharded = serve(devices=DeviceGroup.simulated(2))
        assert sharded[0].batch_size == len(problems)
        for r1, rg in zip(single, sharded):
            assert r1.info == rg.info == 0
            _assert_bitwise(r1.factor, rg.factor)
            _assert_bitwise(r1.solution, rg.solution)
            _assert_bitwise(r1.extras, rg.extras)


_GOLDEN_SHARD_PLANE = (
    {
        "host_time": "0x1.f509f26fa279ap-9",
        "ready_time": "0x1.f659a02448808p-9",
        "transfers": (87, 10),
        "memo": (26, 11),
        "ends": (
            "0x1.04aa2780340b9p-13", "0x1.91f44a2927b7bp-13", "0x1.b0e3510ba3edap-13",
            "0x1.b26882491d06ep-13", "0x1.cb6714126f262p-13", "0x1.72860b6e81cfcp-12",
            "0x1.ce2d0bab5d40dp-12", "0x1.f385db63897b4p-12", "0x1.402c655e298fbp-11",
            "0x1.637eee08667acp-11", "0x1.932686abbb875p-11", "0x1.d98fc75e60a5bp-11",
            "0x1.fce78a2563d3cp-11", "0x1.ff86a0d68040ep-11", "0x1.4c8b7f61bb7a2p-10",
            "0x1.4cc74bdf51e55p-10", "0x1.987bbbfad573ap-10", "0x1.98b788786bdedp-10",
            "0x1.e46bf893ef6d2p-10", "0x1.e4a7c51185d85p-10", "0x1.182e1a9684b35p-9",
            "0x1.184c00d54fe8ep-9", "0x1.3e2638e311b00p-9", "0x1.3e441f21dce59p-9",
            "0x1.641e572f9eacbp-9", "0x1.643c3d6e69e24p-9", "0x1.8a16757c2ba96p-9",
            "0x1.8a345bbaf6defp-9", "0x1.b00e93c8b8a61p-9", "0x1.b02c7a0783dbap-9",
            "0x1.d606b21545a2cp-9", "0x1.d703d379d5808p-9", "0x1.e89e23a67ec81p-9",
            "0x1.f172c5d10e02cp-9", "0x1.f361b63f35c62p-9", "0x1.f37a09530d57bp-9",
            "0x1.f509f26fa279ap-9",
        ),
    },
    {
        "host_time": "0x1.3b20da4fe2e81p-9",
        "ready_time": "0x1.3c7095c2f8dbep-9",
        "transfers": (33, 5),
        "memo": (20, 10),
        "ends": (
            "0x1.46030ab6c8c9ep-14", "0x1.83e818eafdf83p-14", "0x1.871bac66e2fc9p-14",
            "0x1.96e0875776ed6p-14", "0x1.5969a267bbe24p-13", "0x1.9734a6c58733cp-13",
            "0x1.279883b5a6035p-12", "0x1.750d57934d782p-12", "0x1.d152668befd30p-12",
            "0x1.d69093ee28ad4p-12", "0x1.6567dc298080fp-11", "0x1.65e0746315199p-11",
            "0x1.ddd9881df96f6p-11", "0x1.de5220578e080p-11", "0x1.2b259a09392efp-10",
            "0x1.2b61e626037b4p-10", "0x1.675e700375a63p-10", "0x1.679abc203ff28p-10",
            "0x1.a39745fdb21d7p-10", "0x1.a3d3921a7c69cp-10", "0x1.dfd01bf7ee94bp-10",
            "0x1.e00c6814b8e10p-10", "0x1.0e0478f91585fp-9", "0x1.0e229f077aac2p-9",
            "0x1.2c20e3f633c19p-9", "0x1.2d1a1aa2113cfp-9", "0x1.3899ee6add770p-9",
            "0x1.3a8916dc7f207p-9", "0x1.3aa2b3785e489p-9", "0x1.3b20da4fe2e81p-9",
        ),
    },
)


def _shard_plane(launch_log):
    """Each shard device's clocks, launch end times, transfer counts and
    cost-memo counters after a fixed numerics-on op sequence."""
    from repro.ops.driver import run_op_vbatched

    group = DeviceGroup.simulated(2)
    logs = [launch_log(d) for d in group.devices]
    dev = group.staging_device  # the source batches share a shard device
    for op, level in (("potrf", "none"), ("getrf", "none"), ("geqrf", "all"),
                      ("gesvj", "none"), ("potrf", "all")):
        batch = VBatch.from_host(dev, _op_matrices(op, SIZES, seed=len(op)))
        run_op_vbatched(dev, batch, None, op, OpOptions(optimize=level), devices=group)
        batch.free()
    return tuple(
        {
            "host_time": d.host_time.hex(),
            "ready_time": d.default_stream.ready_time.hex(),
            "transfers": tuple(
                d.timeline.sums.get(c, [0])[0] for c in ("memcpy_h2d", "memcpy_d2h")
            ),
            "memo": (d.cost_memo_hits, d.cost_memo_misses),
            "ends": tuple(r.end.hex() for r in log.launches),
        }
        for d, log in zip(group.devices, logs)
    )


def test_shard_simulated_plane_is_pinned(launch_log):
    """Recorded while the shards still ran the numerics themselves."""
    assert _shard_plane(launch_log) == _GOLDEN_SHARD_PLANE


def test_shard_failure_leaves_source_batch_untouched(monkeypatch):
    from repro.errors import LaunchError, PlanExecutionError
    from repro.ops.driver import run_op_vbatched

    mats = _op_matrices("geqrf", SIZES, seed=3)
    group = DeviceGroup.simulated(2)

    def broken(kernel, stream=None, run_numerics=None):
        raise LaunchError("shard down")

    monkeypatch.setattr(group.devices[1], "launch", broken)
    batch = VBatch.from_host(Device(), [m.copy() for m in mats])
    infos_before = batch.infos_dev.data.copy()
    with pytest.raises(PlanExecutionError) as exc_info:
        run_op_vbatched(batch.device, batch, 37, "geqrf", OpOptions(), devices=group)
    err = exc_info.value
    assert err.plan_index == 1
    assert err.partial[0] is not None and err.partial[1] is None
    assert err.partial_launch_stats.devices_used == 1
    for i, a in enumerate(mats):
        _assert_bitwise(batch.matrix_view(i), a)
    _assert_bitwise(batch.infos_dev.data, infos_before)


def test_functional_pass_is_one_span():
    from repro.observability import Tracer, activate

    mats = _op_matrices("gesvj", SIZES, seed=5)
    tr = Tracer()
    with activate(tr):
        _run_op("gesvj", mats, devices=DeviceGroup.simulated(2))
        group = DeviceGroup.simulated(2, execute_numerics=False)
        timing = VBatch.allocate(group.staging_device, [8, 12, 16], "d")
        potrf_vbatched_max(timing.device, timing, 16, OpOptions(), devices=group)
    by_name = {}
    for span in tr.spans("shard"):
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["shard-gather"]) == 2
    (numerics,) = by_name["shard-numerics"]  # none on the timing-only run
    assert numerics.track == Track("topology", "sharder")
    assert by_name["shard-gather"][0].end <= numerics.start
