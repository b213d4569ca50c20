"""Tests for the simulated device BLAS kernels (gemm/syrk/trtri/trsm)."""

import numpy as np
import pytest

from repro.core.plan import PlanBuilder
from repro.device import Device, PlanExecutor
from repro.device.kernel import ALL
from repro.kernels.gemm import GemmTask, GemmTiling, VbatchedGemmKernel
from repro.kernels.syrk import StreamedSyrkLauncher, SyrkTask, VbatchedSyrkKernel
from repro.kernels.trsm import TrsmPanelItem, vbatched_trsm_panel
from repro.kernels.trtri import TrtriTask, VbatchedTrtriDiagKernel
from repro.types import Precision

RNG = np.random.default_rng(7)


def lower_tri(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.tril(rng.standard_normal((n, n))) + n * np.eye(n)


class TestGemmTiling:
    def test_default_shared_mem_double(self):
        t = GemmTiling()
        assert t.shared_mem(8) == 2 * (64 + 64) * 16 * 8

    def test_for_precision_fits_device(self):
        for elem in (4, 8, 16):
            t = GemmTiling.for_precision(elem)
            assert t.shared_mem(elem) <= 48 * 1024

    def test_z_uses_smaller_tiles(self):
        assert GemmTiling.for_precision(16).blk_m < GemmTiling.for_precision(8).blk_m

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmTiling(blk_m=0)


class TestVbatchedGemm:
    def test_numerics_batch(self):
        dev = Device()
        tasks = []
        expect = []
        a_s, b_s, c_s = [], [], []  # one operand container per slot
        for i, (m, n, k) in enumerate([(5, 4, 3), (16, 16, 16), (1, 7, 2)]):
            rng = np.random.default_rng(i)
            a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
            c = rng.standard_normal((m, n))
            expect.append(2.0 * a @ b + c)
            a_s.append(a), b_s.append(b), c_s.append(c)
            tasks.append(GemmTask(
                m, n, k, a=(0, i, ALL, ALL), b=(1, i, ALL, ALL), c=(2, i, ALL, ALL),
                alpha=2.0, beta=1.0,
            ))
        dev.launch(VbatchedGemmKernel(tasks, Precision.D), operands=(a_s, b_s, c_s))
        for c, e in zip(c_s, expect):
            np.testing.assert_allclose(c, e, rtol=1e-12)

    def test_transb_conjugate(self):
        dev = Device()
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        c = np.zeros((4, 5), complex)
        task = GemmTask(
            4, 5, 3, a=(0, 0, ALL, ALL), b=(1, 0, ALL, ALL), c=(2, 0, ALL, ALL),
            transb="c", beta=0.0,
        )
        dev.launch(VbatchedGemmKernel([task], Precision.Z), operands=([a], [b], [c]))
        np.testing.assert_allclose(c, a @ b.conj().T, rtol=1e-12)

    def test_grid_sized_by_max_dims(self):
        k = VbatchedGemmKernel(
            [GemmTask(200, 200, 8), GemmTask(10, 10, 8)], Precision.D
        )
        *_, active, counts = k.block_arrays()
        total = counts.sum()
        # ceil(200/64)^2 tiles per matrix x 2 matrices
        assert total == 2 * (4 * 4)
        dead = counts[active == 0].sum()
        assert dead == 16 - 1  # the small matrix has one live tile

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            VbatchedGemmKernel([], Precision.D)

    def test_zero_size_task_all_dead(self):
        k = VbatchedGemmKernel([GemmTask(0, 0, 0), GemmTask(64, 64, 4)], Precision.D)
        *_, active, counts = k.block_arrays()
        dead = counts[active == 0].sum()
        assert dead == 1

    def test_small_tile_has_fewer_active_threads(self):
        big = VbatchedGemmKernel([GemmTask(64, 64, 16)], Precision.D).block_arrays()[3][0]
        small = VbatchedGemmKernel([GemmTask(8, 8, 16)], Precision.D).block_arrays()[3][0]
        assert small < big

    def test_flops_accounted_exactly(self):
        m, n, k = 100, 70, 30
        kern = VbatchedGemmKernel([GemmTask(m, n, k)], Precision.D)
        flops, *_, counts = kern.block_arrays()
        total = (flops * counts).sum()
        assert total == pytest.approx(2 * m * n * k)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            GemmTask(-1, 2, 2)


class TestVbatchedSyrk:
    def test_numerics(self):
        dev = Device()
        rng = np.random.default_rng(11)
        tasks = []
        expect = []
        a_s, c_s = [], []
        for i, (n, k) in enumerate([(6, 3), (17, 8)]):
            a = rng.standard_normal((n, k))
            c = rng.standard_normal((n, n))
            e = c - np.tril(a @ a.T) + np.triu(c, 1) * 0  # lower updated only
            full = a @ a.T
            mask = np.tril(np.ones((n, n), bool))
            e = c.copy()
            e[mask] -= full[mask]
            expect.append(e)
            a_s.append(a), c_s.append(c)
            tasks.append(SyrkTask(n, k, a=(0, i, ALL, ALL), c=(1, i, ALL, ALL)))
        dev.launch(VbatchedSyrkKernel(tasks, Precision.D), operands=(a_s, c_s))
        for c, e in zip(c_s, expect):
            np.testing.assert_allclose(c, e, rtol=1e-12)

    def test_decision_layer_kills_upper_tiles(self):
        kern = VbatchedSyrkKernel([SyrkTask(256, 16)], Precision.D)
        *_, active, counts = kern.block_arrays()
        live = counts[active != 0].sum()
        dead = counts[active == 0].sum()
        tiles = -(-256 // kern.tiling.blk_m)
        assert live == tiles * (tiles + 1) // 2
        assert live + dead == tiles * tiles

    def test_flops_accounted(self):
        n, k = 120, 40
        kern = VbatchedSyrkKernel([SyrkTask(n, k)], Precision.D)
        flops, *_, counts = kern.block_arrays()
        total = (flops * counts).sum()
        assert total == pytest.approx(n * (n + 1) * k)

    def test_k_zero_is_cheap(self):
        kern = VbatchedSyrkKernel([SyrkTask(64, 0)], Precision.D)
        assert kern.block_arrays()[0].sum() == 0.0

    def test_square_tiles_required(self):
        with pytest.raises(ValueError, match="square tiles"):
            VbatchedSyrkKernel([SyrkTask(8, 4)], Precision.D, GemmTiling(blk_m=64, blk_n=32))

    def test_streamed_launcher_issues_per_matrix(self, launch_log):
        dev = Device(execute_numerics=False)
        log = launch_log(dev)
        launcher = StreamedSyrkLauncher(dev, num_streams=4)
        launcher.launch_all([SyrkTask(64, 16)] * 10, Precision.D)
        assert len(log.launches) == 10
        launcher.synchronize()
        assert dev.synchronize() > 0

    def test_streamed_launcher_validation(self):
        dev = Device()
        with pytest.raises(ValueError):
            StreamedSyrkLauncher(dev, num_streams=0)


class TestVbatchedTrtri:
    def test_numerics_inverts_diag_blocks(self):
        dev = Device()
        jb = 48
        tri = lower_tri(jb, seed=5)
        inv = np.zeros_like(tri)
        task = TrtriTask(jb, (0, 0, ALL, ALL), (1, 0, ALL, ALL))
        dev.launch(VbatchedTrtriDiagKernel([task], Precision.D, ib=16), operands=([tri], [inv]))
        for j0 in range(0, jb, 16):
            j1 = j0 + 16
            block = tri[j0:j1, j0:j1]
            np.testing.assert_allclose(inv[j0:j1, j0:j1] @ block, np.eye(16), atol=1e-10)

    def test_source_triangle_not_modified(self):
        dev = Device()
        tri = lower_tri(9, seed=6)
        keep = tri.copy()
        inv = np.zeros_like(tri)
        task = TrtriTask(9, (0, 0, ALL, ALL), (1, 0, ALL, ALL))
        dev.launch(VbatchedTrtriDiagKernel([task], Precision.D, ib=4), operands=([tri], [inv]))
        np.testing.assert_array_equal(tri, keep)

    def test_dead_blocks_for_small_tasks(self):
        kern = VbatchedTrtriDiagKernel(
            [TrtriTask(64), TrtriTask(0)], Precision.D, ib=32
        )
        *_, active, counts = kern.block_arrays()
        dead = counts[active == 0].sum()
        assert dead == 2  # the zero-size task's full grid share

    def test_validation(self):
        with pytest.raises(ValueError):
            VbatchedTrtriDiagKernel([], Precision.D)
        with pytest.raises(ValueError):
            VbatchedTrtriDiagKernel([TrtriTask(4)], Precision.D, ib=0)
        with pytest.raises(ValueError):
            TrtriTask(-1)


def _panel_solve(items, panels, width, ib=32):
    """Plan ``items`` on a fresh device and execute it on ``panels``
    (each a diagonal block stacked over its rows below); returns the
    launch count."""
    dev = Device()
    pb = PlanBuilder(dev)
    pb.operand_workspace((len(items), width, width), np.float64)
    launches = vbatched_trsm_panel(pb, items, Precision.D, ib=ib)
    plan = pb.build()
    PlanExecutor(dev).execute(plan, panels)
    plan.close()
    return launches


class TestVbatchedTrsmPanel:
    @pytest.mark.parametrize("m,jb", [(10, 8), (40, 32), (65, 33), (7, 64)])
    def test_solves_right_lower_conjtrans(self, m, jb):
        """B := B L^{-H} across a small batch, vs direct solve."""
        rng = np.random.default_rng(m * 100 + jb)
        l11 = lower_tri(jb, seed=jb)
        b = rng.standard_normal((m, jb))
        panel = np.vstack([l11, b])
        launches = _panel_solve([TrsmPanelItem(m, jb)], [panel], jb, ib=16)
        assert launches >= 2  # trtri + at least one gemm sweep
        np.testing.assert_array_equal(panel[:jb], l11)
        np.testing.assert_allclose(panel[jb:] @ np.tril(l11).conj().T, b, rtol=1e-9, atol=1e-9)

    def test_mixed_batch_with_finished_matrices(self):
        rng = np.random.default_rng(0)
        l11 = lower_tri(16, seed=1)
        b = rng.standard_normal((12, 16))
        panel = np.vstack([l11, b])
        items = [
            TrsmPanelItem(0, 0),  # finished matrix
            TrsmPanelItem(12, 16),
        ]
        _panel_solve(items, [None, panel], 16)
        np.testing.assert_allclose(panel[16:] @ np.tril(l11).T, b, rtol=1e-9)

    def test_block_origin_offsets_every_operand(self):
        rng = np.random.default_rng(5)
        l11 = lower_tri(8, seed=2)
        b = rng.standard_normal((5, 8))
        full = rng.standard_normal((16, 16))
        full[3:11, 3:11] = l11
        full[11:, 3:11] = b
        keep = full.copy()
        _panel_solve([TrsmPanelItem(5, 8, offset=3)], [full], 8, ib=4)
        np.testing.assert_allclose(full[11:, 3:11] @ np.tril(l11).T, b, rtol=1e-9)
        keep[11:, 3:11] = full[11:, 3:11]
        np.testing.assert_array_equal(full, keep)  # nothing outside B moved

    def test_all_finished_no_launches(self, launch_log):
        dev = Device()
        log = launch_log(dev)
        assert vbatched_trsm_panel(dev, [TrsmPanelItem(0, 0)], Precision.D) == 0
        assert log.launches == []

    def test_validation(self):
        dev = Device()
        with pytest.raises(ValueError):
            vbatched_trsm_panel(dev, [], Precision.D)
        with pytest.raises(ValueError):
            vbatched_trsm_panel(dev, [TrsmPanelItem(2, 2)], Precision.D, ib=0)
        with pytest.raises(ValueError):
            TrsmPanelItem(-1, 2)
