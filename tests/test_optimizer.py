"""Tests for the LaunchPlan optimizer pass pipeline (core/optimizer.py).

The contract under test: every pass level produces bit-identical
numerics (the functional plane never moves — only barriers, stream
assignments and launch granularity change), the rewrite report and
registry counters are truthful, and the PlanCache key separates
optimized from unoptimized plans.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import distributions as dist
from repro.core.batch import VBatch
from repro.core.blas_steps import BlasStepDriver
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.fused import FusedDriver
from repro.core.optimizer import (
    PASS_NAMES,
    ancestor_masks,
    node_access,
    optimize_plan,
    resolve_passes,
    with_level,
)
from repro.core.partial import plan_partial_potrf
from repro.core.plan import Barrier, PlanCache
from repro.core.separated import SeparatedDriver
from repro.device import Device, PlanExecutor
from repro.errors import ArgumentError, PlanError
from repro.observability import MetricsRegistry, Tracer, activate

LEVELS = ("none", "elide", "prune", "coalesce", "lpt", "elide+prune", "all")


def _spd_matrices(rng, sizes):
    out = []
    for n in sizes:
        a = rng.standard_normal((int(n), int(n)))
        out.append(a @ a.T + int(n) * np.eye(int(n)))
    return out


def _half_cols(sizes):
    return np.maximum(0, np.asarray(sizes, dtype=np.int64) // 2)


# Each entry plans one driver family over (device, batch, sizes).
PLANNERS = {
    "fused": lambda d, b, s: FusedDriver(d).plan(b, int(s.max())),
    "separated": lambda d, b, s: SeparatedDriver(d).plan(b, int(s.max())),
    "streamed": lambda d, b, s: SeparatedDriver(
        d, syrk_mode="streamed", syrk_streams=4
    ).plan(b, int(s.max())),
    "blas": lambda d, b, s: BlasStepDriver(d).plan(b, int(s.max())),
    "partial": lambda d, b, s: plan_partial_potrf(d, b, _half_cols(s)),
}


class TestResolvePasses:
    def test_none_variants(self):
        assert resolve_passes("none") == ()
        assert resolve_passes(None) == ()
        assert resolve_passes("") == ()

    def test_all(self):
        assert resolve_passes("all") == PASS_NAMES

    @pytest.mark.parametrize("name", PASS_NAMES)
    def test_single_pass(self, name):
        assert resolve_passes(name) == (name,)

    def test_combo_canonical_order(self):
        # order in the string does not matter; pipeline order does
        assert resolve_passes("lpt+elide") == ("elide", "lpt")
        assert resolve_passes("coalesce+prune+elide") == ("elide", "prune", "coalesce")

    def test_unknown_pass_raises(self):
        with pytest.raises(ValueError, match="unknown optimization pass"):
            resolve_passes("elide+bogus")

    def test_options_validate_level(self):
        with pytest.raises(ArgumentError):
            OpOptions(optimize="bogus")
        assert OpOptions(optimize="elide+lpt").optimize == "elide+lpt"


def _timing_plan(planner, count=120, max_size=256, seed=7):
    dev = Device(execute_numerics=False)
    sizes = dist.generate_sizes("uniform", count, max_size, seed=seed)
    batch = VBatch.allocate(dev, sizes, "d")
    return dev, PLANNERS[planner](dev, batch, sizes)


class TestPassEffects:
    def test_elide_removes_streamed_barriers(self):
        dev, plan = _timing_plan("streamed")
        barriers_before = sum(isinstance(n, Barrier) for n in plan.nodes)
        assert barriers_before > 0
        optimize_plan(plan, "elide")
        rep = plan.meta["optimizer"]
        assert rep["barriers_elided"] > 0
        barriers_after = sum(isinstance(n, Barrier) for n in plan.nodes)
        assert barriers_after == barriers_before - rep["barriers_elided"]
        # the removed fences must be replaced by event edges
        assert any(n.deps for n in plan.nodes)
        plan.close()

    def test_coalesce_merges_streamed_syrk(self):
        dev, plan = _timing_plan("streamed")
        nodes_before = len(plan.nodes)
        optimize_plan(plan, "elide+coalesce")
        rep = plan.meta["optimizer"]
        assert rep["launches_merged"] > 0
        assert len(plan.nodes) == nodes_before - rep["barriers_elided"] - rep["launches_merged"]
        plan.close()

    def test_prune_drops_dead_tasks(self):
        dev, plan = _timing_plan("separated")
        optimize_plan(plan, "prune")
        rep = plan.meta["optimizer"]
        # a uniform batch always has matrices done before max_n's last
        # panel step, so the vbatched launches carry dead tasks
        assert rep["tasks_pruned"] > 0
        plan.close()

    def test_lpt_records_parallel_groups(self):
        dev, plan = _timing_plan("fused", count=300, max_size=512)
        optimize_plan(plan, "lpt")
        rep = plan.meta["optimizer"]
        assert rep["groups_rebalanced"] > 0
        assert rep["parallel_groups"]
        indices = {i for grp in rep["parallel_groups"] for i in grp}
        assert len(indices) == sum(len(g) for g in rep["parallel_groups"])
        for grp in rep["parallel_groups"]:
            assert len(grp) >= 2
        plan.close()

    def test_report_shape_and_validation(self):
        dev, plan = _timing_plan("separated")
        optimize_plan(plan, "all")
        rep = plan.meta["optimizer"]
        for key in ("level", "passes", "nodes_before", "nodes_after",
                    "barriers_elided", "launches_merged", "launches_pruned",
                    "tasks_pruned", "groups_rebalanced", "parallel_groups"):
            assert key in rep
        assert rep["nodes_after"] == len(plan.nodes)
        assert rep["passes"] == list(PASS_NAMES)
        plan.close()

    def test_none_is_identity(self):
        dev, plan = _timing_plan("fused")
        nodes = plan.nodes
        out = optimize_plan(plan, "none")
        assert out is plan
        assert plan.nodes is nodes
        assert "optimizer" not in plan.meta
        plan.close()

    def test_closed_plan_rejected(self):
        dev, plan = _timing_plan("fused")
        plan.close()
        with pytest.raises(PlanError):
            optimize_plan(plan, "all")

    def test_registry_counters_published(self):
        dev, plan = _timing_plan("streamed")
        registry = MetricsRegistry()
        optimize_plan(plan, "all", registry=registry)
        vals = registry.as_dict()
        rep = plan.meta["optimizer"]
        assert vals["plan_opt_barriers_elided"] == rep["barriers_elided"] > 0
        assert vals["plan_opt_launches_merged"] == rep["launches_merged"] > 0
        assert vals["plan_opt_launches_pruned"] == rep["launches_pruned"]
        plan.close()

    def test_simulated_time_never_regresses(self):
        for planner in PLANNERS:
            dev, plan = _timing_plan(planner)
            dev.reset_clock()
            t0 = dev.synchronize()
            PlanExecutor(dev).execute(plan)
            base = dev.synchronize() - t0
            plan.close()

            dev2, plan2 = _timing_plan(planner)
            optimize_plan(plan2, "all")
            dev2.reset_clock()
            t0 = dev2.synchronize()
            PlanExecutor(dev2).execute(plan2)
            opt = dev2.synchronize() - t0
            plan2.close()
            assert opt <= base * (1 + 1e-9), f"{planner}: {opt} > {base}"


def _launch_trace(dev):
    return [(r.kernel_name, r.start, r.end, r.blocks) for r in dev.launches]


class TestLaunchProgram:
    """An optimized plan's lowered program replays exactly what the
    node-by-node walk does: same launches, clocks and counts."""

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    @pytest.mark.parametrize("level", LEVELS[1:])
    def test_replay_matches_walk(self, planner, level):
        dev, plan = _timing_plan(planner)
        optimize_plan(plan, level)
        if any(isinstance(n, Barrier) for n in plan.nodes):
            assert plan.program is None
            plan.close()
            return
        assert plan.program is not None
        walk_dev, walk_plan = _timing_plan(planner)
        optimize_plan(walk_plan, level)
        walk_plan.program = None
        for _ in range(2):  # the second run replays a warm memo
            replayed = PlanExecutor(dev).execute(plan)
            walked = PlanExecutor(walk_dev).execute(walk_plan)
            assert asdict(replayed) == asdict(walked)
            assert dev.synchronize() == walk_dev.synchronize()
        assert _launch_trace(dev) == _launch_trace(walk_dev)
        plan.close()
        walk_plan.close()

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_unoptimized_plan_is_lowered_at_build(self, planner):
        # The builder lowers every barrier-free plan; "none" keeps it.
        dev, plan = _timing_plan(planner)
        barriers = any(isinstance(n, Barrier) for n in plan.nodes)
        assert (optimize_plan(plan, "none").program is None) == barriers
        plan.close()

    def test_tracer_walks_nodes(self):
        dev, plan = _timing_plan("fused")
        optimize_plan(plan, "all")
        assert plan.program is not None
        tracer = Tracer()
        with activate(tracer):
            PlanExecutor(dev).execute(plan)
        assert len(tracer.spans("fused") + tracer.spans("aux")) == len(plan.nodes)
        plan.close()

    def test_replay_stats_are_fresh_copies(self):
        dev, plan = _timing_plan("separated")
        optimize_plan(plan, "all")
        first = PlanExecutor(dev).execute(plan)
        first.merge(first)  # must not leak into the program's counts
        again = PlanExecutor(dev).execute(plan)
        assert first.count("aux") == 2 * again.count("aux") > 0
        assert again.launches == len(plan.nodes)
        plan.close()

    def test_with_level_reuses_options(self):
        opts = OpOptions()
        assert with_level(opts, "all") is with_level(OpOptions(), "all")
        assert with_level(opts, "all").optimize == "all"


def _numerics_result(planner, level, seed=11):
    dev = Device(execute_numerics=True)
    rng = np.random.default_rng(seed)
    sizes = np.asarray(sorted(rng.integers(4, 88, size=24), reverse=True), dtype=np.int64)
    batch = VBatch.from_host(dev, _spd_matrices(rng, sizes))
    plan = PLANNERS[planner](dev, batch, sizes)
    optimize_plan(plan, level)
    try:
        PlanExecutor(dev).execute(plan, batch)
    finally:
        plan.close()
    out = batch.download_matrices()
    batch.free()
    return out


class TestNumericsBitIdentical:
    """The numerics plane is untouched at EVERY level — `==`, no tolerance."""

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_all_levels_bit_identical(self, planner):
        baseline = _numerics_result(planner, "none")
        for level in LEVELS[1:]:
            got = _numerics_result(planner, level)
            for i, (a, b) in enumerate(zip(baseline, got)):
                assert np.array_equal(a, b), f"{planner}/{level}: matrix {i} diverged"


class TestConflictOrderPreserved:
    """Every conflicting pair in the optimized plan keeps a happens-before
    edge in node-list order (spot check; the hypothesis suite sweeps
    random workloads)."""

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_conflicts_are_ordered(self, planner):
        dev, plan = _timing_plan(planner, count=60, max_size=160, seed=3)
        optimize_plan(plan, "all")
        masks = ancestor_masks(plan)
        accesses = [
            None if isinstance(n, Barrier) else node_access(n) for n in plan.nodes
        ]
        for j, aj in enumerate(accesses):
            if aj is None:
                continue
            rj, wj = aj
            for i in range(j):
                ai = accesses[i]
                if ai is None:
                    continue
                ri, wi = ai
                if _conflict(ri, wi, rj, wj):
                    assert masks[j] & (1 << i), (
                        f"{planner}: conflicting nodes {i} -> {j} lost their edge"
                    )
        plan.close()


def _conflict(r1, w1, r2, w2):
    def hits(a, b):
        if not a or not b:
            return False
        if "**" in a or "**" in b:
            return True
        if "*" in a and any(isinstance(t, int) for t in b):
            return True
        if "*" in b and any(isinstance(t, int) for t in a):
            return True
        return bool(set(a) & set(b))

    return hits(w1, w2) or hits(w1, r2) or hits(r1, w2)


class TestDriverIntegration:
    def test_run_potrf_optimize_kwarg_bit_identical(self):
        rng = np.random.default_rng(5)
        sizes = np.asarray(sorted(rng.integers(8, 96, size=16), reverse=True))
        mats = _spd_matrices(rng, sizes)

        def run(optimize):
            dev = Device(execute_numerics=True)
            batch = VBatch.from_host(dev, [m.copy() for m in mats])
            res = potrf_vbatched_max(
                dev, batch, int(sizes.max()), OpOptions(), optimize=optimize
            )
            out = batch.download_matrices()
            batch.free()
            return res, out

        base_res, base = run(None)
        opt_res, opt = run("all")
        assert base_res.failed_count == opt_res.failed_count == 0
        for a, b in zip(base, opt):
            assert np.array_equal(a, b)

    def test_stats_carry_optimizer_counters(self):
        dev = Device(execute_numerics=False)
        sizes = dist.generate_sizes("uniform", 150, 300, seed=2)
        batch = VBatch.allocate(dev, sizes, "d")
        res = potrf_vbatched_max(
            dev,
            batch,
            int(sizes.max()),
            OpOptions(approach="separated", syrk_mode="streamed"),
            optimize="all",
        )
        stats = res.launch_stats
        assert stats.opt_barriers_elided > 0
        assert stats.opt_launches_merged > 0
        registry = MetricsRegistry()
        stats.publish(registry)
        vals = registry.as_dict()
        assert vals["driver_opt_barriers_elided"] == stats.opt_barriers_elided
        assert vals["driver_opt_launches_merged"] == stats.opt_launches_merged
        assert vals["driver_opt_launches_pruned"] == stats.opt_launches_pruned

    def test_unoptimized_run_reports_zero(self):
        dev = Device(execute_numerics=False)
        sizes = dist.generate_sizes("uniform", 40, 128, seed=2)
        batch = VBatch.allocate(dev, sizes, "d")
        res = potrf_vbatched_max(dev, batch, int(sizes.max()), OpOptions())
        assert res.launch_stats.opt_barriers_elided == 0
        assert res.launch_stats.opt_launches_merged == 0
        assert res.launch_stats.opt_launches_pruned == 0


class TestPlanCacheKey:
    """Satellite (a): optimization level and stream count are key-bearing."""

    def _batch(self, dev):
        sizes = dist.generate_sizes("uniform", 30, 128, seed=4)
        return VBatch.allocate(dev, sizes, "d"), sizes

    def test_optimize_level_separates_keys(self):
        dev = Device(execute_numerics=False)
        batch, sizes = self._batch(dev)
        k_none = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="none")
        k_all = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="all")
        k_sub = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="elide")
        assert len({k_none, k_all, k_sub}) == 3

    def test_stream_count_separates_keys(self):
        dev = Device(execute_numerics=False)
        batch, _ = self._batch(dev)
        k8 = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="all", streams=8)
        k32 = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="all", streams=32)
        assert k8 != k32

    def test_streams_default_from_device_spec(self):
        dev = Device(execute_numerics=False)
        batch, _ = self._batch(dev)
        implicit = PlanCache.key_for(dev, batch, 128, "fused", "opts")
        explicit = PlanCache.key_for(
            dev, batch, 128, "fused", "opts",
            optimize="none", streams=int(dev.spec.hardware_queues),
        )
        assert implicit == explicit

    def test_device_id_stays_leading_for_evict(self):
        dev = Device(execute_numerics=False)
        batch, _ = self._batch(dev)
        key = PlanCache.key_for(dev, batch, 128, "fused", "opts", optimize="all")
        assert key[0] == id(dev)

    def test_cache_never_serves_across_levels(self):
        dev = Device(execute_numerics=False)
        batch, sizes = self._batch(dev)
        cache = PlanCache()
        max_n = int(sizes.max())
        potrf_vbatched_max(dev, batch, max_n, OpOptions(), plan_cache=cache,
                           optimize="none")
        assert cache.misses == 1
        potrf_vbatched_max(dev, batch, max_n, OpOptions(), plan_cache=cache,
                           optimize="all")
        assert cache.misses == 2  # different level: no false hit
        res = potrf_vbatched_max(dev, batch, max_n, OpOptions(), plan_cache=cache,
                                 optimize="all")
        assert cache.hits == 1
        assert res.launch_stats.plan_cache_hit
