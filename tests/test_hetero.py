"""Tests for heterogeneous groups: placement, stealing, exactness, serving."""

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.core.interface import potrf_vbatched_max
from repro.device import Device, DeviceGroup
from repro.device.hetero import HeteroGroup, parse_members
from repro.device.member import CpuMember, GpuMember
from repro.device.spec import K20X, K40C, TITAN_BLACK
from repro.errors import ArgumentError
from repro.hostblas import make_spd_batch, potrf
from repro.kernels import grouping
from repro.ops import OpOptions, get_op
from repro.ops.driver import run_op_hetero
from repro.observability.trace import Tracer, activate
from repro.types import Precision
from repro import distributions as dist

D = Precision.D


def _timing_batch(sizes):
    dev = Device(execute_numerics=False, name="t:staging")
    return VBatch.allocate(dev, np.asarray(sizes, dtype=np.int64), D)


def _run(group, sizes, **kwargs):
    batch = _timing_batch(sizes)
    return potrf_vbatched_max(
        batch.device, batch, int(np.max(sizes)), OpOptions(), devices=group, **kwargs
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ArgumentError, match="at least one member"):
            HeteroGroup([])
        with pytest.raises(ArgumentError, match="ComputeMember"):
            HeteroGroup([Device(execute_numerics=False)])
        m = GpuMember(execute_numerics=False, name="g")
        with pytest.raises(ArgumentError, match="duplicate"):
            HeteroGroup([m, GpuMember(execute_numerics=False, name="g")])
        with pytest.raises(ArgumentError, match="unknown placement"):
            HeteroGroup([m], placement="bogus")
        with pytest.raises(ArgumentError, match="chunks_per_member"):
            HeteroGroup([m], chunks_per_member=0)

    def test_parse_members(self):
        members = parse_members("k40c*2+k20x+titan-black+cpu:8", name_prefix="p:")
        kinds = [m.kind for m in members]
        assert kinds == ["gpu", "gpu", "gpu", "gpu", "cpu"]
        assert [m.name for m in members] == [
            "p:k40c0", "p:k40c1", "p:k20x0", "p:titan-black0", "p:cpu0"
        ]
        assert members[0].device.spec is K40C
        assert members[2].device.spec is K20X
        assert members[3].device.spec is TITAN_BLACK
        assert members[4].cores == 8

    def test_parse_members_errors(self):
        for bad in ("", "  ", "warp9", "k40c*0", "k40c*x", "cpu:many", "cpux"):
            with pytest.raises(ArgumentError):
                parse_members(bad)

    def test_staging_device_for_all_cpu_group(self):
        group = HeteroGroup([CpuMember(name="c")])
        assert group.staging_device is group.staging_device
        assert group.staging_device.execute_numerics

    def test_group_views(self):
        group = HeteroGroup.simulated("k40c*2+cpu", execute_numerics=False)
        assert len(group) == 3
        assert len(group.gpu_members) == 2 and len(group.cpu_members) == 1
        assert group.staging_device is group.gpu_members[0].device


class TestPlacement:
    def test_chunks_cover_batch_exactly(self):
        sizes = dist.uniform_sizes(100, 256, seed=5)
        group = HeteroGroup.simulated("k40c*3+cpu", execute_numerics=False)
        parts = group.chunk_indices(sizes, D)
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(sizes.size))

    def test_assign_records_alternatives(self):
        sizes = dist.uniform_sizes(60, 128, seed=2)
        group = HeteroGroup.simulated("k40c+cpu", execute_numerics=False)
        queues = group.assign(sizes, D, OpOptions())
        chunks = [c for q in queues.values() for c in q]
        assert chunks and all(set(c.alternatives) == set(queues) for c in chunks)
        assert all(c.est > 0 for c in chunks)

    def test_result_carries_placement_and_member_stats(self):
        sizes = dist.uniform_sizes(80, 192, seed=7)
        group = HeteroGroup.simulated("k40c*2", execute_numerics=False)
        res = _run(group, sizes)
        assert res.placement and res.member_stats is not None
        placed = sum(d["count"] for d in res.placement)
        assert placed == sizes.size
        assert sum(ms.matrices for ms in res.member_stats) == sizes.size
        assert res.launch_stats.chunks == len(res.placement)
        assert res.launch_stats.devices_used >= 1


class TestScaling:
    def test_eight_devices_beat_scaling_target(self):
        """The tentpole number: >= 3.5x on 8 identical K40c (was 2.15x)."""
        sizes = dist.uniform_sizes(400, 256, seed=11)
        dev = Device(execute_numerics=False)
        b1 = VBatch.allocate(dev, sizes, D)
        t1 = potrf_vbatched_max(
            dev, b1, int(sizes.max()), OpOptions(approach="fused")
        ).elapsed
        group = HeteroGroup.simulated(
            "k40c*8", execute_numerics=False, chunks_per_member=1
        )
        res = _run(group, sizes)
        assert t1 / res.elapsed >= 3.5
        assert res.launch_stats.devices_used == 8

    def test_mixed_group_beats_best_solo_member(self):
        sizes = dist.uniform_sizes(400, 256, seed=11)
        mixed = HeteroGroup.simulated(
            "k40c+k20x+titan-black+cpu", execute_numerics=False, chunks_per_member=1
        )
        t_mixed = _run(mixed, sizes).elapsed
        solos = {}
        for token in ("k40c", "k20x", "titan-black", "cpu"):
            solo = HeteroGroup.simulated(
                token, execute_numerics=False, chunks_per_member=1
            )
            solos[token] = _run(solo, sizes).elapsed
        assert t_mixed < min(solos.values())


class _SlowGpu(GpuMember):
    """Runs 10x slower than its estimates claim — a stealing victim."""

    def run_chunk(self, *args, **kwargs):
        run = super().run_chunk(*args, **kwargs)
        penalty = run.elapsed * 9.0
        self.device.host_time += penalty
        run.elapsed += penalty
        return run


class TestWorkStealing:
    def test_steal_rescues_a_mispredicted_member(self):
        sizes = dist.uniform_sizes(120, 160, seed=3)
        slow = _SlowGpu(execute_numerics=False, name="slow")
        fast = GpuMember(execute_numerics=False, name="fast")
        group = HeteroGroup([slow, fast], chunks_per_member=2)
        res = _run(group, sizes)
        assert res.launch_stats.work_steals >= 1
        stolen = [d for d in res.placement if "stolen_from" in d]
        assert stolen and all(d["member"] == "fast" for d in stolen)
        assert all(d["stolen_from"] == "slow" for d in stolen)
        # Cover is still exact after the rewrite.
        assert sum(d["count"] for d in res.placement) == sizes.size

    def test_steal_off_freezes_assignment(self):
        sizes = dist.uniform_sizes(120, 160, seed=3)
        slow = _SlowGpu(execute_numerics=False, name="slow")
        fast = GpuMember(execute_numerics=False, name="fast")
        group = HeteroGroup([slow, fast], chunks_per_member=2, steal=False)
        res = _run(group, sizes)
        assert res.launch_stats.work_steals == 0
        assert all("stolen_from" not in d for d in res.placement)


class TestNumerics:
    def test_gpu_sharded_hetero_is_bit_identical_to_single_device(self):
        """Reference-kernel differential: member placement must be
        invisible in the factors, bit for bit."""
        mats = make_spd_batch([48, 7, 33, 64, 12, 33, 21, 56], D, seed=3)
        # Pin approach AND nb: the default nb tracks the planner's
        # max_n, and a chunk's local max_n differs from the global one.
        opts = OpOptions(approach="fused", nb=16)
        with grouping.reference_numerics():
            single = VBatch.from_host(Device(), [m.copy() for m in mats])
            potrf_vbatched_max(single.device, single, 64, opts)
            group = HeteroGroup.simulated("k40c*3", name_prefix="n:")
            batch = VBatch.from_host(Device(), [m.copy() for m in mats])
            res = potrf_vbatched_max(batch.device, batch, 64, opts, devices=group)
        assert res.failed_count == 0
        for i in range(len(mats)):
            assert np.array_equal(
                batch.matrix_view(i), single.matrix_view(i)
            ), f"matrix {i}"

    def test_cpu_placed_matrices_match_hostblas_exactly(self):
        mats = make_spd_batch([30, 18, 44, 25], D, seed=9)
        group = HeteroGroup([CpuMember(name="c")])
        batch = VBatch.from_host(group.staging_device, [m.copy() for m in mats])
        res = potrf_vbatched_max(batch.device, batch, 44, OpOptions(), devices=group)
        assert res.failed_count == 0
        assert res.approach == "hetero[cpu-percore]"
        for i, a0 in enumerate(mats):
            ref = a0.copy()
            assert potrf(ref, "l") == 0
            assert np.array_equal(batch.matrix_view(i), ref), f"matrix {i}"

    def test_mixed_group_numerics_are_correct(self):
        sizes = dist.generate_sizes("uniform", 24, 96, seed=4)
        mats = make_spd_batch(sizes.tolist(), D, seed=8)
        group = HeteroGroup.simulated("k40c+k20x+cpu", name_prefix="m:")
        batch = VBatch.from_host(group.staging_device, [m.copy() for m in mats])
        res = potrf_vbatched_max(
            batch.device, batch, int(sizes.max()), OpOptions(), devices=group
        )
        assert res.failed_count == 0
        for i, a0 in enumerate(mats):
            L = np.tril(batch.matrix_view(i))
            assert np.linalg.norm(L @ L.T - a0) / np.linalg.norm(a0) < 1e-13

    def test_info_codes_map_back_to_global_indices(self):
        mats = make_spd_batch([24] * 8, D, seed=1)
        bad = 5
        mats[bad] = -np.eye(24)
        group = HeteroGroup.simulated("k40c*2+cpu", name_prefix="i:")
        batch = VBatch.from_host(group.staging_device, [m.copy() for m in mats])
        opts = OpOptions(on_error="info")
        res = potrf_vbatched_max(batch.device, batch, 24, opts, devices=group)
        assert res.infos[bad] != 0
        assert np.all(res.infos[np.arange(8) != bad] == 0)


class TestObservability:
    def test_trace_spans_and_placement_args(self):
        sizes = dist.uniform_sizes(60, 128, seed=6)
        group = HeteroGroup.simulated("k40c*2+cpu", execute_numerics=False)
        tracer = Tracer()
        with activate(tracer):
            batch = _timing_batch(sizes)
            run_op_hetero(group, batch, int(sizes.max()), get_op("potrf"), OpOptions())
        spans = tracer.spans(cat="hetero")
        names = {e.name for e in spans}
        assert "hetero-place" in names and "hetero-chunk" in names
        place = next(e for e in spans if e.name == "hetero-place")
        assert place.args["decisions"] and place.args["chunks"] == len(
            place.args["decisions"]
        )
        chunk_spans = [e for e in spans if e.name == "hetero-chunk"]
        assert len(chunk_spans) == place.args["chunks"]


class TestServing:
    def test_server_places_on_hetero_group_and_reports(self):
        group = HeteroGroup.simulated("k40c+cpu", name_prefix="s:")
        from repro.serving.server import BatchServer

        matrices = make_spd_batch([48, 7, 33, 64, 12, 33], D, seed=3)
        server = BatchServer(devices=group, policy="fifo", max_batch=len(matrices))
        futures = server.submit_many(matrices)
        assert server.pump(force=True) == len(matrices)
        responses = [f.result(timeout=5.0) for f in futures]
        assert all(r.ok for r in responses)
        snap = server.metrics.snapshot()
        placement = snap["placement"]
        assert placement, "hetero dispatch must surface per-member stats"
        assert sum(ms["matrices"] for ms in placement.values()) == len(matrices)
        exposition = server.metrics.expose()
        assert "hetero_chunks_total" in exposition


class TestNonPotrfHetero:
    """QR/LU/SVD on a mixed group: GPU-only static placement whose
    chunks take the op's crossover choice and whose results match a
    single-device run bit for bit."""

    MEMBERS = "k40c+k20x+cpu"
    #: Every chunk of a batch stays on one side of the op crossover (96),
    #: so one single-device approach reproduces all of them.
    REGIMES = {
        "fused": [40, 7, 33, 64, 12, 33, 21, 56, 90, 3, 77, 48],
        "separated": [129, 100, 257, 140, 97, 180, 129, 110, 200, 150],
        # The Jacobi SVD has one path; small orders keep it quick.
        "jacobi": [24, 7, 17, 32, 12, 17, 9, 28],
    }

    @staticmethod
    def _mats(sizes, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((n, n)) for n in sizes]

    @pytest.mark.parametrize(
        "op,regime",
        [(op, r) for op in ("geqrf", "getrf") for r in ("fused", "separated")]
        + [("gesvj", "jacobi")],
    )
    def test_gpu_only_static_placement_matches_single_device(self, op, regime):
        from repro.ops import OpOptions, get_op, run_op_vbatched

        sizes = self.REGIMES[regime]
        max_n = max(sizes)
        mats = self._mats(sizes, seed=len(sizes))
        # A fixed sweep budget: the default tracks each chunk's max_n.
        opts = OpOptions(sweeps=4)
        single = VBatch.from_host(Device(), [m.copy() for m in mats])
        ref = run_op_vbatched(single.device, single, max_n, op, opts)
        group = HeteroGroup.simulated(self.MEMBERS, name_prefix=f"{op}:")
        batch = VBatch.from_host(group.staging_device, [m.copy() for m in mats])
        res = run_op_vbatched(batch.device, batch, max_n, op, opts, devices=group)

        # The CPU member's core model only knows POTRF: it never runs a
        # chunk, and without a steal loop nothing moves.
        cpu = group.cpu_members[0].name
        assert all(d["member"] != cpu for d in res.placement)
        assert all(ms.chunks == 0 for ms in res.member_stats if ms.name == cpu)
        assert res.launch_stats.work_steals == 0
        assert all("stolen_from" not in d for d in res.placement)
        desc = get_op(op)
        for d in res.placement:
            assert d["approach"] == desc.choose_approach(D, d["max_n"], opts)
        assert res.elapsed == max(ms.busy_s for ms in res.member_stats)

        assert res.failed_count == 0
        assert np.array_equal(res.infos, ref.infos)
        for i in range(len(mats)):
            assert np.array_equal(batch.matrix_view(i), single.matrix_view(i)), f"matrix {i}"
        if op == "gesvj":
            assert "sweeps_done" in desc.output_keys  # compared bitwise below
        for key in desc.output_keys:
            want, got = ref.outputs[key], res.outputs[key]
            if isinstance(want, dict):
                assert sorted(got) == sorted(want)
                for j in want:
                    assert np.array_equal(got[j], want[j]), f"{key}[{j}]"
            else:
                assert np.array_equal(got, want), key

    @pytest.mark.parametrize("placement", ["group", "hetero"])
    def test_gesvj_sweeps_done_matches_single_device(self, placement):
        """Per-matrix sweep counts survive sharding and hetero placement
        bit for bit (a batch-level ``sweeps`` read 0 off those runs)."""
        from repro.extensions import gesvj_vbatched

        sizes = [24, 7, 17, 32, 12, 9]
        mats = self._mats(sizes, seed=6)
        single = VBatch.from_host(Device(), [m.copy() for m in mats])
        ref = gesvj_vbatched(single.device, single)
        if placement == "group":
            group = DeviceGroup.simulated(2)
        else:
            group = HeteroGroup.simulated(self.MEMBERS, name_prefix="gesvj:")
        batch = VBatch.from_host(group.staging_device, [m.copy() for m in mats])
        res = gesvj_vbatched(batch.device, batch, devices=group)

        assert not hasattr(res, "sweeps")
        assert ref.outputs["sweeps_done"].min() > 0
        assert np.array_equal(res.outputs["sweeps_done"], ref.outputs["sweeps_done"])
        assert np.array_equal(res.outputs["singular_values"], ref.outputs["singular_values"])
        for i in range(len(mats)):
            assert np.array_equal(batch.matrix_view(i), single.matrix_view(i)), f"matrix {i}"

    def test_no_steal_even_from_a_mispredicted_member(self):
        """The POTRF stealing test's setup: a non-POTRF op keeps its
        static placement."""
        from repro.ops import OpOptions, run_op_vbatched

        sizes = dist.uniform_sizes(120, 160, seed=3)
        slow = _SlowGpu(execute_numerics=False, name="slow")
        fast = GpuMember(execute_numerics=False, name="fast")
        group = HeteroGroup([slow, fast], chunks_per_member=2)
        batch = _timing_batch(sizes)
        res = run_op_vbatched(
            batch.device, batch, int(sizes.max()), "getrf", OpOptions(), devices=group
        )
        assert res.launch_stats.work_steals == 0
        assert all("stolen_from" not in d for d in res.placement)
