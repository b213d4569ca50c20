"""The device cost memo: ``Device.prepare_launch`` by content key.

A memo hit must be indistinguishable from the uncached cost model, for
every kernel class the planners emit; any change to an input the cost
model reads must miss; and the memo stays bounded.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batched_blas.routines import _FlexTrsmKernel, _FullTrtriKernel
from repro.core.batch import VBatch
from repro.device import K20X, Device
from repro.device.device import cost_memo_stats, publish_cost_memo
from repro.device.kernel import BlockWork, Kernel, LaunchConfig
from repro.extensions.kernels import (
    FusedGetrsKernel,
    FusedPotrsKernel,
    JacobiSweepKernel,
    LarfbUpdateGemmKernel,
    LeftTrsmKernel,
    PanelGeqr2Kernel,
    PanelGetf2Kernel,
    RowSwapKernel,
    SvdConvergenceKernel,
    SvdFinalizeKernel,
)
from repro.kernels import grouping
from repro.kernels.aux import IMaxReduceKernel, StepSizesKernel
from repro.kernels.cublas import SingleGemmKernel, SinglePotf2Kernel
from repro.kernels.fused_potrf import FusedPotrfStepKernel
from repro.kernels.gemm import GemmTask, VbatchedGemmKernel
from repro.kernels.naive import NaivePotf2Kernel
from repro.kernels.potf2 import PanelPotf2StepKernel
from repro.kernels.syrk import SyrkTask, VbatchedSyrkKernel
from repro.kernels.trtri import TrtriTask, VbatchedTrtriDiagKernel
from repro.observability import MetricsRegistry
from repro.types import Precision


def _summary(result) -> tuple:
    """Every field of a cost-model result, for exact comparison."""
    occ, schedule, total_blocks = result
    return (
        occ, schedule.makespan, schedule.total_block_time, schedule.utilization,
        schedule.exact, schedule.slots, total_blocks,
    )


# -- kernel factories: (params strategy, build(params, device)) ----------
# The value spaces are small on purpose, so equal cost inputs recur and
# the memo actually serves hits.
SIZES = st.lists(st.sampled_from([1, 5, 16, 17, 40]), min_size=1, max_size=4)
DIMS = st.sampled_from([0, 8, 33])
PREC = st.sampled_from(["s", "d", "z"])
NB = st.sampled_from([8, 16])


def _batch(device, p):
    return VBatch.allocate(device, p["sizes"], p["prec"])


def _shape(batch):
    """What a kernel keeps of a batch: its sizes and precision."""
    return batch.sizes_host, batch.precision


def _fused(p, device):
    batch = _batch(device, p)
    remaining = np.maximum(0, batch.sizes_host - p["step"] * p["nb"])
    groups = grouping.grouped_first_seen(remaining) if p["grouped"] else None
    return FusedPotrfStepKernel(
        *_shape(batch), p["step"], p["nb"], np.arange(batch.batch_count),
        max(1, int(remaining.max())), etm=p["etm"], groups=groups,
    )


def _jbs(p, batch):
    return np.minimum(np.maximum(0, batch.sizes_host - p["offset"]), 16)


def _panel_potf2(p, device):
    batch = _batch(device, p)
    jbs = _jbs(p, batch)
    local = np.maximum(0, jbs - p["step"] * p["nb"])
    groups = grouping.grouped_first_seen(local) if p["grouped"] else None
    return PanelPotf2StepKernel(
        batch.precision, p["offset"], p["step"], p["nb"], jbs, max(1, int(jbs.max())),
        etm=p["etm"], groups=groups,
    )


def _naive_potf2(p, device):
    batch = _batch(device, p)
    jbs = _jbs(p, batch)
    return NaivePotf2Kernel(batch.precision, p["offset"], jbs, max(1, int(jbs.max())))


def _syrk(p, device):
    return VbatchedSyrkKernel([SyrkTask(n, k) for n, k in p["pairs"]], p["prec"])


def _gemm(p, device):
    return VbatchedGemmKernel([GemmTask(m, n, k) for m, n, k in p["triples"]], p["prec"])


def _larfb(p, device):
    batch = _batch(device, p)
    tasks = [GemmTask(m, n, k) for m, n, k in p["triples"]]
    return LarfbUpdateGemmKernel(tasks, batch.precision, p["offset"], _jbs(p, batch), {}, None)


def _trtri_diag(p, device):
    tasks = [TrtriTask(jb) for jb in p["sizes"]]
    return VbatchedTrtriDiagKernel(tasks, p["prec"], ib=p["nb"])


def _flex_trsm(p, device):
    items = [(m, m, n, None, None) for m, n, _ in p["triples"]]
    return _FlexTrsmKernel(items, p["prec"], p["side"], "l", "n", "n", 1.0,
                           max(m for m, _, _ in p["triples"]))


def _full_trtri(p, device):
    return _FullTrtriKernel([(n, None) for n in p["sizes"]], p["prec"], "l", "n",
                            max(p["sizes"]))


def _single_gemm(p, device):
    m, n, k = p["triples"][0]
    return SingleGemmKernel(m, n, k, p["prec"])


def _single_potf2(p, device):
    return SinglePotf2Kernel(p["sizes"][0], p["prec"])


def _imax(p, device):
    return IMaxReduceKernel(device.alloc((len(p["sizes"]),), np.int64), device.alloc((1,), np.int64))


def _step_sizes(p, device):
    n = len(p["sizes"])
    return StepSizesKernel(
        np.asarray(p["sizes"]), p["offset"], p["nb"], device.alloc((n,), np.int64),
        device.alloc((n,), np.int64), device.alloc((2,), np.int64),
    )


def _subset(p, batch):
    return np.arange(batch.batch_count)[:: p["stride"]]


def _getf2(p, device):
    batch = _batch(device, p)
    return PanelGetf2Kernel(*_shape(batch), p["offset"], _jbs(p, batch), None, max(p["sizes"]),
                            indices=_subset(p, batch))


def _row_swap(p, device):
    batch = _batch(device, p)
    return RowSwapKernel(*_shape(batch), p["offset"], _jbs(p, batch), None, max(p["sizes"]))


def _left_trsm(p, device):
    batch = _batch(device, p)
    return LeftTrsmKernel(*_shape(batch), p["offset"], _jbs(p, batch), max(p["sizes"]))


def _geqr2(p, device):
    batch = _batch(device, p)
    return PanelGeqr2Kernel(*_shape(batch), p["offset"], _jbs(p, batch), None, {},
                            max(p["sizes"]), indices=_subset(p, batch))


def _jacobi(p, device):
    batch = _batch(device, p)
    return JacobiSweepKernel(*_shape(batch), 0, None, p["rows"], indices=_subset(p, batch))


def _svd_finalize(p, device):
    return SvdFinalizeKernel(*_shape(_batch(device, p)), None, p["rows"])


def _rhs(p, batch):
    views = []
    for n, nrhs in zip(batch.sizes_host.tolist(), p["nrhs"] * batch.batch_count):
        views.append(None if nrhs == 0 else np.zeros((n, nrhs) if nrhs > 1 else n))
    return views


def _potrs(p, device):
    batch = _batch(device, p)
    return FusedPotrsKernel(*_shape(batch), _rhs(p, batch), max(p["sizes"]))


def _getrs(p, device):
    batch = _batch(device, p)
    return FusedGetrsKernel(*_shape(batch), _rhs(p, batch), None, max(p["sizes"]))


def _svd_conv(p, device):
    return SvdConvergenceKernel(len(p["sizes"]), p["prec"])


PARAM_FIELDS = {
    "sizes": SIZES,
    "prec": PREC,
    "nb": NB,
    "step": st.integers(0, 2),
    "offset": st.sampled_from([0, 16]),
    "etm": st.sampled_from(["classic", "aggressive"]),
    "grouped": st.booleans(),
    "pairs": st.lists(st.tuples(DIMS, DIMS), min_size=1, max_size=2),
    "triples": st.lists(st.tuples(st.sampled_from([1, 33]), DIMS, DIMS), min_size=1, max_size=2),
    "side": st.sampled_from(["l", "r"]),
    "stride": st.sampled_from([1, 2]),
    "rows": st.sampled_from([16, 33, 40]),
    "nrhs": st.lists(st.sampled_from([0, 1, 3]), min_size=1, max_size=1),
}
PARAMS = st.fixed_dictionaries(PARAM_FIELDS)

BATCH = ("sizes", "prec")
#: name -> (build, the parameters it reads)
FACTORIES = {
    "fused": (_fused, BATCH + ("nb", "step", "etm", "grouped")),
    "panel_potf2": (_panel_potf2, BATCH + ("nb", "step", "offset", "etm", "grouped")),
    "naive_potf2": (_naive_potf2, BATCH + ("offset",)),
    "syrk": (_syrk, ("pairs", "prec")),
    "gemm": (_gemm, ("triples", "prec")),
    "larfb_gemm": (_larfb, BATCH + ("triples", "offset")),
    "trtri_diag": (_trtri_diag, BATCH + ("nb",)),
    "flex_trsm": (_flex_trsm, ("triples", "prec", "side")),
    "full_trtri": (_full_trtri, BATCH),
    "single_gemm": (_single_gemm, ("triples", "prec")),
    "single_potf2": (_single_potf2, BATCH),
    "imax": (_imax, ("sizes",)),
    "step_sizes": (_step_sizes, ("sizes", "offset", "nb")),
    "getf2": (_getf2, BATCH + ("offset", "stride")),
    "row_swap": (_row_swap, BATCH + ("offset",)),
    "left_trsm": (_left_trsm, BATCH + ("offset",)),
    "geqr2": (_geqr2, BATCH + ("offset", "stride")),
    "jacobi": (_jacobi, BATCH + ("rows", "stride")),
    "svd_finalize": (_svd_finalize, BATCH + ("rows",)),
    "potrs": (_potrs, BATCH + ("nrhs",)),
    "getrs": (_getrs, BATCH + ("nrhs",)),
    "svd_conv": (_svd_conv, BATCH),
}


class TestMemoHitsAreExact:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(params=PARAMS)
    @settings(max_examples=15, deadline=None)
    def test_equal_inputs_hit_and_match_fresh(self, name, params):
        device = Device(execute_numerics=False)
        build = FACTORIES[name][0]
        first = build(params, device)
        second = build(params, device)  # distinct objects, equal inputs
        assert first.cost_key() is not None, f"{name} opts out of the memo"
        cold = device.prepare_launch(first)
        served = device.prepare_launch(second)
        assert device.cost_memo_hits == 1 and device.cost_memo_misses == 1
        assert _summary(served) == _summary(device._compute_launch(second))
        assert _summary(served) == _summary(cold)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_one_input_changed_never_aliases(self, name, data):
        # Kernels that differ from a base in one input: a key that
        # misses that input serves the base's (wrong) cost.
        base = data.draw(PARAMS)
        fields = st.sampled_from(FACTORIES[name][1])
        variants = data.draw(st.lists(st.tuples(fields, PARAMS), min_size=1, max_size=8))
        stream = [base] + [{**base, field: other[field]} for field, other in variants]
        self._check_stream(Device(execute_numerics=False), [(name, p) for p in stream])

    @given(stream=st.lists(st.tuples(st.sampled_from(sorted(FACTORIES)), PARAMS),
                           min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_mixed_stream_never_aliases(self, stream):
        self._check_stream(Device(execute_numerics=False), stream)

    @staticmethod
    def _check_stream(device, stream):
        """Every result the memo serves equals the uncached cost model."""
        for name, params in stream:
            kernel = FACTORIES[name][0](params, device)
            served = device.prepare_launch(kernel)
            assert _summary(served) == _summary(device._compute_launch(kernel)), name
        assert device.cost_memo_hits + device.cost_memo_misses == len(stream)

    def test_cached_plan_reuses_the_key(self):
        device = Device(execute_numerics=False)
        kernel = _gemm({"triples": [(8, 8, 8)], "prec": "d"}, device)
        device.launch(kernel)
        device.launch(kernel)
        assert kernel._memo_key  # computed once, kept on the object
        assert (device.cost_memo_hits, device.cost_memo_misses) == (1, 1)


def _fused_for(device, sizes, nb=8, etm="classic", prec="d", order=None):
    batch = VBatch.allocate(device, sizes, prec)
    indices = np.arange(batch.batch_count) if order is None else np.asarray(order)
    remaining = batch.sizes_host[indices]
    return FusedPotrfStepKernel(
        *_shape(batch), 0, nb, indices, int(remaining.max()), etm=etm,
        groups=grouping.grouped_first_seen(remaining),
    )


class TestIssueOrder:
    def test_same_multiset_in_another_order_does_not_alias(self):
        # Enough blocks to oversubscribe the SM slots, so the exact list
        # scheduler's result depends on the order sizes are issued in.
        sizes = np.tile([8, 512], 300)
        device = Device(execute_numerics=False)
        interleaved = _fused_for(device, sizes)
        ordered = _fused_for(device, sizes, order=np.argsort(-sizes, kind="stable"))
        a = device.prepare_launch(interleaved)
        b = device.prepare_launch(ordered)
        assert device.cost_memo_misses == 2 and device.cost_memo_hits == 0
        assert a[1].exact and b[1].exact
        assert a[1].makespan != b[1].makespan  # sorting's effect survives
        assert _summary(b) == _summary(device._compute_launch(ordered))


class TestFusedKeyIgnoresHowGroupsArrive:
    def test_grouped_and_ungrouped_builds_share_one_entry(self):
        # The optimizer's merge drops groups when one side lacks them;
        # the launch costs the same, so it must key the same.
        device = Device(execute_numerics=False)
        sizes = [40, 17, 17, 5, 40]
        batch = VBatch.allocate(device, sizes, "d")
        order = np.array([0, 4, 1, 2, 3])
        remaining = np.maximum(0, batch.sizes_host[order] - 8)
        grouped = FusedPotrfStepKernel(*_shape(batch), 1, 8, order, 32, etm="aggressive",
                                       groups=grouping.grouped_first_seen(remaining))
        plain = FusedPotrfStepKernel(*_shape(batch), 1, 8, order, 32, etm="aggressive")
        assert grouped.memo_key() == plain.memo_key()
        assert _summary(device.prepare_launch(grouped)) == _summary(
            device.prepare_launch(plain)
        )
        assert (device.cost_memo_misses, device.cost_memo_hits) == (1, 1)


class TestInputsThatMustMiss:
    SIZES = [5, 17, 40]

    def _misses_after(self, device, kernel) -> int:
        before = device.cost_memo_misses
        device.prepare_launch(kernel)
        return device.cost_memo_misses - before

    def test_kernel_inputs(self):
        device = Device(execute_numerics=False)
        assert self._misses_after(device, _fused_for(device, self.SIZES)) == 1
        assert self._misses_after(device, _fused_for(device, self.SIZES)) == 0
        for variant in (
            _fused_for(device, self.SIZES + [5]),  # same groups, other counts
            _fused_for(device, self.SIZES, nb=16),
            _fused_for(device, self.SIZES, etm="aggressive"),
            _fused_for(device, self.SIZES, prec="s"),
        ):
            assert self._misses_after(device, variant) == 1

    @pytest.mark.parametrize("change", ["calibration", "spec", "exact_threshold"])
    def test_device_inputs(self, change):
        device = Device(execute_numerics=False)
        kernel = _fused_for(device, self.SIZES)
        before = device.prepare_launch(kernel)
        if change == "calibration":
            device.calibration = replace(device.calibration, issue_efficiency=0.5)
        elif change == "spec":
            device.spec = K20X
        else:
            device.scheduler.exact_threshold = 0
        after = device.prepare_launch(kernel)
        assert device.cost_memo_misses == 2 and device.cost_memo_hits == 0
        assert _summary(after) == _summary(device._compute_launch(kernel))
        assert _summary(after) != _summary(before)


class _OptOutKernel(Kernel):
    name = "opt_out"

    @property
    def precision(self):
        return Precision.D

    def launch_config(self):
        return LaunchConfig(64)

    def block_arrays(self):
        return BlockWork.pack([BlockWork(1e4, 1e3, count=3)])


class TestBoundsAndTelemetry:
    def test_memo_stays_under_its_cap(self):
        device = Device(execute_numerics=False)
        device.COST_MEMO_CAP = 4
        for n in range(1, 21):
            device.prepare_launch(SinglePotf2Kernel(n, "d"))
            assert len(device._cost_memo) <= 4
        assert device.cost_memo_misses == 20

    def test_kernels_without_a_cost_key_are_always_computed(self):
        device = Device(execute_numerics=False)
        kernel = _OptOutKernel()
        first = device.prepare_launch(kernel)
        second = device.prepare_launch(kernel)
        assert _summary(first) == _summary(second)
        assert cost_memo_stats([device]) == {"hits": 0, "misses": 2, "size": 0, "hit_ratio": 0.0}

    def test_stats_sum_over_devices_and_publish_as_gauges(self):
        devices = [Device(execute_numerics=False) for _ in range(2)]
        for device in devices:
            kernel = SinglePotf2Kernel(8, "d")
            device.prepare_launch(kernel)
            device.prepare_launch(kernel)
        assert cost_memo_stats(devices) == {"hits": 2, "misses": 2, "size": 2, "hit_ratio": 0.5}
        registry = MetricsRegistry()
        publish_cost_memo(registry, devices)
        publish_cost_memo(registry, devices)  # gauges: re-publishing never double counts
        values = registry.as_dict()
        assert values["device_cost_memo_hits"] == 2
        assert values["device_cost_memo_hit_ratio"] == 0.5

    def test_serving_snapshot_and_exposition(self):
        from repro.serving.loadgen import run_serve_bench
        from repro.serving.server import BatchServer

        report = run_serve_bench(requests=40, max_size=48, seed=0, policies=("fifo",))
        memo = report["policies"]["fifo"]["cost_memo"]
        assert memo["hits"] > 0 and memo["misses"] > 0
        assert memo["hit_ratio"] == memo["hits"] / (memo["hits"] + memo["misses"])

        server = BatchServer(Device(execute_numerics=False))
        text = server.metrics.expose()
        for name in ("hits", "misses", "size", "hit_ratio"):
            assert f"device_cost_memo_{name}" in text

    def test_trace_report_shows_the_memo_hit_ratio(self):
        from repro.observability import Tracer, analyze_trace, format_trace_report
        from repro.serving.loadgen import run_serve_bench

        tracer = Tracer()
        run_serve_bench(requests=40, max_size=48, seed=0, policies=("fifo",), tracer=tracer)
        group = analyze_trace(tracer).group("fifo")
        assert group.memo_hits > 0 and group.memo_misses > 0
        assert "memo_hit_%" in format_trace_report(analyze_trace(tracer))
