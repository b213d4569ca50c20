"""The operation registry and the generic op driver (repro.ops)."""

import numpy as np
import pytest

from repro import flops as _flops
from repro.core import PlanCache, VBatch
from repro.device import Device, DeviceGroup
from repro.errors import ArgumentError
from repro.ops import OpOptions, run_op_vbatched
from repro.ops.registry import Operation, get_op, list_ops, register


class TestRegistryContents:
    def test_plannable_and_alias_split(self):
        assert list_ops(plannable=True) == ("geqrf", "gesvj", "getrf", "potrf")
        assert list_ops(plannable=False) == ("gesv", "posv")
        assert set(list_ops()) == set(list_ops(plannable=True)) | set(
            list_ops(plannable=False)
        )

    def test_unknown_op_raises_with_known_list(self):
        with pytest.raises(ArgumentError, match="unknown op 'syevd'"):
            get_op("syevd")

    def test_aliases_point_at_their_base(self):
        posv, gesv = get_op("posv"), get_op("gesv")
        assert posv.base == "potrf" and posv.planner is None
        assert gesv.base == "getrf" and gesv.planner is None
        assert posv.needs_rhs and gesv.needs_rhs
        # Factor accounting matches the base op exactly.
        for n in (7, 64, 300):
            assert posv.matrix_flops(n, "d") == get_op("potrf").matrix_flops(n, "d")
            assert gesv.matrix_flops(n, "d") == get_op("getrf").matrix_flops(n, "d")

    def test_flop_models_match_the_flops_module(self):
        for name in list_ops(plannable=True):
            desc = get_op(name)
            for prec in ("s", "d"):
                assert desc.matrix_flops(100, prec) == _flops.routine_flops(name)(
                    100, prec
                )

    def test_gesvj_is_real_only_and_spd_marks_potrf(self):
        assert get_op("gesvj").real_only
        assert get_op("potrf").spd_input and get_op("posv").spd_input
        assert not get_op("geqrf").spd_input

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ArgumentError, match="already registered"):
            register(Operation(name="potrf", doc="dup", matrix_flops=lambda n, p: 0.0))


class TestChooseApproach:
    def test_explicit_approach_validated(self):
        desc = get_op("geqrf")
        assert desc.choose_approach("d", 64, OpOptions(approach="fused")) == "fused"
        with pytest.raises(ArgumentError, match="bad approach"):
            OpOptions(approach="blocked")
        # Valid option value, but not an approach this op implements.
        with pytest.raises(ArgumentError, match="no 'fused' approach"):
            get_op("gesvj").choose_approach("d", 64, OpOptions(approach="fused"))

    def test_auto_uses_the_op_crossover_default(self):
        desc = get_op("geqrf")  # default_crossover = 96
        assert desc.default_crossover == 96
        assert desc.choose_approach("d", 64, OpOptions()) == "fused"
        assert desc.choose_approach("d", 200, OpOptions()) == "separated"

    def test_options_crossover_overrides_the_default(self):
        desc = get_op("getrf")
        small = desc.choose_approach("d", 64, OpOptions(crossover_size=32))
        assert small == "separated"


class TestOpOptions:
    def test_frozen_and_hashable(self):
        opts = OpOptions(panel_nb=32)
        assert hash(opts) == hash(OpOptions(panel_nb=32))
        assert opts != OpOptions()
        with pytest.raises(AttributeError):
            opts.panel_nb = 64

    def test_usable_as_cache_key_component(self):
        cache = {OpOptions(): "a", OpOptions(sorting=True): "b"}
        assert cache[OpOptions()] == "a"


class TestPlanCacheOpKey:
    def test_op_is_structural_in_the_key(self):
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, np.array([32, 64], dtype=np.int64), "d")
        args = (dev, batch, 64, "fused", OpOptions())
        keys = {PlanCache.key_for(*args, op=op) for op in ("potrf", "geqrf", "getrf")}
        assert len(keys) == 3
        key = PlanCache.key_for(*args, op="geqrf")
        assert "geqrf" in key
        batch.free()

    def test_no_cross_op_cache_hits(self):
        """Regression: geqrf and getrf on the same batch shape must not
        collide even though both planners use the same approach labels
        and an identical options object."""
        dev = Device(execute_numerics=False)
        cache = PlanCache(max_plans=8)
        sizes = np.array([48, 32, 17], dtype=np.int64)
        for op in ("geqrf", "getrf", "potrf"):
            batch = VBatch.allocate(dev, sizes, "d")
            run_op_vbatched(dev, batch, 48, op, OpOptions(), plan_cache=cache)
            batch.free()
        assert cache.hits == 0 and cache.misses == 3 and len(cache) == 3
        # Same op again: now it hits.
        batch = VBatch.allocate(dev, sizes, "d")
        run_op_vbatched(dev, batch, 48, "geqrf", OpOptions(), plan_cache=cache)
        batch.free()
        assert cache.hits == 1 and len(cache) == 3


class TestRunOpVbatched:
    def test_rejects_unknown_and_alias_ops(self):
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, np.array([16], dtype=np.int64), "d")
        with pytest.raises(ArgumentError, match="unknown op"):
            run_op_vbatched(dev, batch, 16, "qr", OpOptions())
        with pytest.raises(ArgumentError, match="serving alias"):
            run_op_vbatched(dev, batch, 16, "posv", OpOptions())
        batch.free()

    def test_potrf_tag_delegates_to_the_potrf_driver(self):
        dev = Device(execute_numerics=False)
        sizes = np.array([64, 40, 8], dtype=np.int64)
        batch = VBatch.allocate(dev, sizes, "d")
        result = run_op_vbatched(dev, batch, 64, "potrf", OpOptions())
        assert result.op == "potrf"
        assert result.total_flops == get_op("potrf").batch_flops(sizes, "d")
        assert result.launch_stats.executed_launches > 0
        batch.free()

    @pytest.mark.parametrize("approach", ["auto", "fused", "separated"])
    @pytest.mark.parametrize("placement", ["device", "group", "hetero"])
    def test_potrf_is_the_same_from_every_entry_point(self, placement, approach):
        """The op driver and the public POTRF interface are one path:
        same clock, infos, factors, counters and placement."""
        from repro.core.interface import potrf_vbatched_max
        from repro.device.hetero import HeteroGroup
        from repro.hostblas import make_spd_batch

        sizes = [64, 40, 8, 97, 33, 150, 21, 64]
        mats = make_spd_batch(sizes, "d", seed=5)
        mats[3] = -np.eye(97)  # one failing matrix: infos must agree too

        def run(entry):
            devices = None
            if placement == "group":
                devices = DeviceGroup.simulated(2)
            elif placement == "hetero":
                devices = HeteroGroup.simulated("k40c+cpu")
            dev = Device() if devices is None else devices.staging_device
            batch = VBatch.from_host(dev, [m.copy() for m in mats])
            result = entry(dev, batch, devices)
            return result, batch.download_matrices()

        via_op, op_factors = run(
            lambda dev, batch, devices: run_op_vbatched(
                dev, batch, max(sizes), "potrf", OpOptions(approach=approach), devices=devices
            )
        )
        via_api, api_factors = run(
            lambda dev, batch, devices: potrf_vbatched_max(
                dev, batch, max(sizes), OpOptions(approach=approach), devices=devices
            )
        )
        assert via_op.failed_count == 1
        assert via_op.approach == via_api.approach
        assert via_op.elapsed == via_api.elapsed
        assert via_op.total_flops == via_api.total_flops
        assert np.array_equal(via_op.infos, via_api.infos)
        assert via_op.launch_stats.as_dict() == via_api.launch_stats.as_dict()
        assert via_op.placement == via_api.placement
        for a, b in zip(op_factors, api_factors):
            assert np.array_equal(a, b)

    def test_plan_op_potrf_honours_planner_knobs(self, launch_log):
        """OpOptions' planner knobs reach the POTRF planner, and the
        fields left ``None`` resolve to POTRF's tuned defaults."""
        from repro.core.driver import make_planner
        from repro.ops import plan_op

        def signature(plan):
            out = []
            for n in plan.nodes:
                k = getattr(n, "kernel", None)
                out.append((
                    type(n).__name__, type(k).__name__, n.stream,
                    getattr(k, "etm_mode", None), k.cost_key() if k is not None else None,
                ))
            return out

        dev = Device(execute_numerics=False)
        sizes = np.array([300, 200, 130, 64, 17], dtype=np.int64)
        batch = VBatch.allocate(dev, sizes, "d")
        potrf = get_op("potrf")
        cases = [
            ("fused", OpOptions()),
            ("fused", OpOptions(etm="classic")),
            ("fused", OpOptions(nb=16)),
            ("separated", OpOptions()),
            ("separated", OpOptions(nb=8)),
            ("separated", OpOptions(syrk_mode="streamed")),
        ]
        seen = {}
        for approach, opts in cases:
            plan, _ = plan_op(dev, batch, 300, potrf, opts, approach)
            want = make_planner(dev, approach, potrf.resolve_options(opts)).plan(batch, 300)
            assert signature(plan) == signature(want)
            assert plan.meta["op"] == "potrf"
            assert plan.meta["useful_flops"] == potrf.batch_flops(sizes, "d")
            seen.setdefault(approach, []).append(signature(plan))
            plan.close()
            want.close()
        # Each knob changes the plan, so none of them was dropped.
        for approach, plans in seen.items():
            assert all(p != plans[0] for p in plans[1:]), approach
        batch.free()

        explicit = dict(etm="aggressive", sorting=True, panel_nb=128, syrk_mode="vbatched")
        for approach in ("fused", "separated"):
            default = _timing_run(launch_log, "potrf", sizes, OpOptions(approach=approach))
            assert default == _timing_run(
                launch_log, "potrf", sizes, OpOptions(approach=approach, **explicit)
            ), approach
        # The other ops' defaults would give a different POTRF plan.
        assert _timing_run(launch_log, "potrf", sizes, OpOptions(approach="separated")) != _timing_run(
            launch_log, "potrf", sizes, OpOptions(approach="separated", sorting=False, panel_nb=64)
        )

    @pytest.mark.parametrize(
        "op,approach",
        [("geqrf", "fused"), ("geqrf", "separated"), ("getrf", "fused"),
         ("getrf", "separated"), ("gesvj", "auto")],
    )
    def test_plan_op_defaults_resolve_per_op(self, op, approach, launch_log):
        """QR/LU/SVD leave ``None`` fields at sorting=False, panel_nb=64."""
        sizes = np.array([300, 200, 130, 64, 17], dtype=np.int64)
        if op == "gesvj":
            sizes = np.array([40, 24, 17, 9], dtype=np.int64)
        default = _timing_run(launch_log, op, sizes, OpOptions(approach=approach))
        explicit = OpOptions(approach=approach, sorting=False, panel_nb=64)
        assert default == _timing_run(launch_log, op, sizes, explicit)
        if approach == "separated":
            # POTRF's defaults would give a different plan.
            potrf_like = OpOptions(approach=approach, sorting=True, panel_nb=128)
            assert default != _timing_run(launch_log, op, sizes, potrf_like)

    def test_cross_op_server_plans_each_op_with_its_own_defaults(self, monkeypatch):
        """One server options object: POTRF batches plan with POTRF's
        defaults, geqrf batches with geqrf's, both at its optimize level."""
        import repro.core.driver as core_driver
        import repro.extensions.geqrf as ext_geqrf
        import repro.ops.driver as ops_driver
        from repro.hostblas import make_spd_batch
        from repro.serving import BatchServer

        seen = {}
        levels = []
        real_make, real_geqrf, real_opt = (
            core_driver.make_planner, ext_geqrf.plan_geqrf, ops_driver.optimize_plan
        )

        def make_planner(device, approach, options):
            seen["potrf"] = (options.sorting, options.panel_nb)
            return real_make(device, approach, options)

        def plan_geqrf(device, batch, max_n, **kw):
            seen["geqrf"] = (kw["sorting"], kw["panel_nb"])
            return real_geqrf(device, batch, max_n, **kw)

        def optimize_plan(plan, level):
            levels.append((plan.meta["op"], level))
            return real_opt(plan, level)

        monkeypatch.setattr(core_driver, "make_planner", make_planner)
        monkeypatch.setattr(ext_geqrf, "plan_geqrf", plan_geqrf)
        monkeypatch.setattr(ops_driver, "optimize_plan", optimize_plan)
        server = BatchServer(Device(), policy="cross-op", options=OpOptions(optimize="all"))
        rng = np.random.default_rng(0)
        futures = [server.submit(m) for m in make_spd_batch([24, 40], "d", seed=1)]
        futures += [server.submit(rng.standard_normal((n, n)), op="geqrf") for n in (24, 40)]
        server.drain()
        assert [f.result().info for f in futures] == [0, 0, 0, 0]
        assert seen == {"potrf": (True, 128), "geqrf": (False, 64)}
        assert sorted(levels) == [("geqrf", "all"), ("potrf", "all")]
        server.shutdown()

    def test_gesvj_rejects_complex_precision(self):
        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, np.array([16], dtype=np.int64), "z")
        with pytest.raises(ArgumentError, match="real"):
            run_op_vbatched(dev, batch, 16, "gesvj", OpOptions())
        batch.free()

    def test_sharded_run_merges_outputs_and_stats(self):
        group = DeviceGroup.simulated(2, execute_numerics=False)
        dev = group.staging_device
        sizes = np.array([64, 48, 32, 24, 16, 8], dtype=np.int64)
        batch = VBatch.allocate(dev, sizes, "d")
        result = run_op_vbatched(dev, batch, 64, "geqrf", OpOptions(), devices=group)
        assert result.meta["shards"] == 2
        assert result.launch_stats.devices_used == 2
        assert result.outputs["taus"].shape == (len(sizes), 64)
        assert result.infos.shape == (len(sizes),)
        batch.free()


def _timing_run(launch_log, op, sizes, options):
    """Launches, simulated time and launch stats of one timing-only run."""
    dev = Device(execute_numerics=False)
    log = launch_log(dev)
    batch = VBatch.allocate(dev, sizes, "d")
    result = run_op_vbatched(dev, batch, int(max(sizes)), op, options)
    batch.free()
    return (
        result.approach, result.elapsed, result.launch_stats.as_dict(),
        log.intervals,
    )


class TestServingPaddedFlops:
    def test_padded_flops_use_the_op_flop_model(self):
        from repro.serving.metrics import ServerMetrics

        sizes = [32, 17, 9]
        for op in ("potrf", "geqrf", "getrf", "gesvj"):
            useful, padded = ServerMetrics.padded_flops_for(sizes, "d", op=op)
            desc = get_op(op)
            assert useful == pytest.approx(desc.batch_flops(sizes, "d"))
            assert padded == pytest.approx(len(sizes) * desc.matrix_flops(32, "d"))
            assert padded >= useful
