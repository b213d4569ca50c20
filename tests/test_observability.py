"""Tests for the observability subsystem: metrics registry + tracer.

Covers the registry primitives and their Prometheus exposition, span
nesting and cross-thread context propagation, the executor / plan-cache
instrumentation (simulated-clock spans must mirror the device's own
records exactly), and — the critical invariant — that an *active*
tracer leaves the simulated timing byte-identical: the figure snapshots
must not move when tracing is on.
"""

import concurrent.futures

import pytest

from repro.core.driver import LaunchStats
from repro.core.plan import PlanBuilder, PlanCache
from repro.device import Device, PlanExecutor, execute_concurrently
from repro.device.kernel import BlockWork, Kernel, LaunchConfig
from repro.errors import ArgumentError
from repro.observability import (
    NULL_TRACER,
    SIM,
    WALL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    Tracer,
    Track,
    activate,
    current_tracer,
    latency_summary,
    percentile,
    propagating,
)
from repro.types import Precision


class _ToyKernel(Kernel):
    name = "toy"

    def __init__(self, nblocks=4, flops=1e6):
        super().__init__()
        self.nblocks = nblocks
        self.flops = flops

    @property
    def precision(self):
        return Precision.D

    def launch_config(self):
        return LaunchConfig(128, 0)

    def block_arrays(self):
        return BlockWork.pack([BlockWork(self.flops, 0.0, count=self.nblocks)])

    def run_numerics(self, operands):
        pass


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------
class TestQuantileHelpers:
    def test_percentile_empty_is_zero(self):
        assert percentile([], 95) == 0.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)

    def test_latency_summary_shape(self):
        s = latency_summary([1.0, 2.0, 3.0])
        assert s["count"] == 3 and s["mean"] == pytest.approx(2.0)
        assert s["p50"] == pytest.approx(2.0) and s["max"] == 3.0

    def test_latency_summary_empty(self):
        assert latency_summary([]) == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0
        }


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ArgumentError):
            Counter("x").inc(-1)

    def test_labels_partition_values(self):
        c = Counter("outcomes_total", labels=("outcome",))
        c.inc(outcome="ok")
        c.inc(3, outcome="fail")
        assert c.value(outcome="ok") == 1 and c.value(outcome="fail") == 3

    def test_wrong_labels_rejected(self):
        c = Counter("outcomes_total", labels=("outcome",))
        with pytest.raises(ArgumentError):
            c.inc(flavor="nope")

    def test_bad_name_rejected(self):
        with pytest.raises(ArgumentError):
            Counter("has spaces")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6.0


class TestHistogram:
    def test_cumulative_counts(self):
        h = Histogram("sizes", buckets=(1, 4, 16))
        for v in (1, 2, 5, 100):
            h.observe(v)
        snap = h.counts()
        assert snap["buckets"] == {1.0: 1, 4.0: 2, 16.0: 3}
        assert snap["count"] == 4 and snap["sum"] == 108.0

    def test_exposition_has_inf_bucket(self):
        h = Histogram("sizes", buckets=(2,))
        h.observe(10)
        text = "\n".join(h.expose())
        assert 'sizes_bucket{le="+Inf"} 1' in text
        assert "sizes_count 1" in text

    def test_needs_buckets(self):
        with pytest.raises(ArgumentError):
            Histogram("empty", buckets=())


class TestSummary:
    def test_exact_percentiles(self):
        s = Summary("lat")
        for v in range(101):
            s.observe(v / 100)
        assert s.percentile(95) == pytest.approx(0.95)
        assert s.summary()["p50"] == pytest.approx(0.50)
        assert s.mean() == pytest.approx(0.50)
        assert s.max() == 1.0 and s.count() == 101

    def test_labelled_channels_stay_apart(self):
        s = Summary("lat", labels=("clock",))
        s.observe(1.0, clock="wall")
        s.observe(9.0, clock="sim")
        assert s.values(clock="wall") == [1.0]
        assert s.summary(clock="sim")["max"] == 9.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_metric(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")
        assert len(r) == 1 and "a_total" in r

    def test_kind_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ArgumentError):
            r.gauge("x")

    def test_label_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x", labels=("a",))
        with pytest.raises(ArgumentError):
            r.counter("x", labels=("b",))

    def test_expose_prometheus_text(self):
        r = MetricsRegistry()
        r.counter("reqs_total", "requests", labels=("outcome",)).inc(outcome="ok")
        r.gauge("depth", "queue depth").set(3)
        text = r.expose()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{outcome="ok"} 1' in text
        assert "# HELP depth queue depth" in text and "depth 3" in text

    def test_expose_prefix_filter(self):
        r = MetricsRegistry()
        r.counter("aa_total").inc()
        r.counter("bb_total").inc()
        assert "bb_total" not in r.expose(prefix="aa")

    def test_as_dict_scalars_only(self):
        r = MetricsRegistry()
        r.counter("plain").inc(2)
        r.counter("labelled", labels=("l",)).inc(l="x")
        r.summary("s").observe(1.0)
        assert r.as_dict() == {"plain": 2.0}


# ---------------------------------------------------------------------------
# tracer: context, nesting, propagation
# ---------------------------------------------------------------------------
class TestNullTracer:
    def test_default_tracer_is_null_and_falsy(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER and NULL_TRACER.enabled is False

    def test_all_hooks_are_noops(self):
        with NULL_TRACER.span("x") as extra:
            extra["ignored"] = 1
        NULL_TRACER.add_span("x", Track("p"), 0.0, 1.0)
        NULL_TRACER.instant("x", Track("p"))
        NULL_TRACER.counter("x", Track("p"), {"v": 1})


class TestTracer:
    def test_activate_scopes_the_tracer(self):
        tr = Tracer()
        with activate(tr):
            assert current_tracer() is tr
        assert current_tracer() is NULL_TRACER

    def test_span_nesting_records_parent_ids(self):
        clock = iter(range(100))
        tr = Tracer(wall_clock=lambda: float(next(clock)))
        with tr.span("outer", Track("p")):
            with tr.span("inner", Track("p")) as extra:
                extra["depth"] = 2
        inner, outer = tr.spans()  # inner closes (and records) first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id and outer.parent_id is None
        assert inner.args == {"depth": 2}
        assert inner.clock == WALL and outer.duration == 3.0

    def test_add_span_inherits_open_parent(self):
        tr = Tracer()
        with tr.span("outer", Track("p")):
            ev = tr.add_span("k", Track("dev", "stream0"), 1.0, 2.0, cat="fused")
        assert ev.clock == SIM and ev.parent_id is not None

    def test_instant_and_counter(self):
        tr = Tracer(wall_clock=lambda: 5.0)
        tr.instant("mark", Track("p"), args={"n": 1})
        tr.counter("depth", Track("p"), {"pending": 3})
        mark, depth = tr.snapshot()
        assert mark.phase == "instant" and mark.start == 5.0
        assert depth.phase == "counter" and depth.args == {"pending": 3.0}

    def test_spans_filters_by_cat(self):
        tr = Tracer()
        tr.add_span("a", Track("p"), 0, 1, cat="fused")
        tr.add_span("b", Track("p"), 0, 1, cat="wait")
        assert [e.name for e in tr.spans("wait")] == ["b"]

    def test_propagating_carries_context_into_pool_threads(self):
        tr = Tracer()
        seen = {}

        def probe():
            seen["tracer"] = current_tracer()
            tr.add_span("k", Track("d", "stream0"), 0.0, 1.0)

        with activate(tr):
            with tr.span("dispatch", Track("s")):
                with concurrent.futures.ThreadPoolExecutor(1) as pool:
                    pool.submit(propagating(probe)).result()
        assert seen["tracer"] is tr
        k, dispatch = tr.spans()
        assert k.parent_id == dispatch.span_id  # nested across the thread hop


# ---------------------------------------------------------------------------
# executor + plan-cache instrumentation
# ---------------------------------------------------------------------------
class TestExecutorTracing:
    def test_sim_spans_mirror_execution_stats(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        for s in (1, 2):
            pb.launch(_ToyKernel(flops=1e7), stream=s)
        pb.barrier()
        tr = Tracer()
        with activate(tr):
            stats = PlanExecutor(dev).execute(pb.build())
        kernel_spans = tr.spans("kernel")
        assert len(kernel_spans) == stats.launches == 2
        sync = dev.synchronize()
        for span in kernel_spans:
            assert span.clock == SIM
            assert span.track.thread.startswith("stream")
            assert 0.0 <= span.start < span.end <= sync
        # Span stamps are the device's own LaunchRecords, verbatim.
        recorded = {(r.start, r.end) for r in dev.launches}
        assert {(s.start, s.end) for s in kernel_spans} <= recorded
        assert len(tr.spans("barrier")) == stats.barriers == 1

    def test_empty_plan_reports_zero_streams(self):
        dev = Device(execute_numerics=False)
        stats = PlanExecutor(dev).execute(PlanBuilder(dev).build())
        assert stats.streams_used == 0 and stats.launches == 0

    def test_cross_stream_dep_counts_event_traffic(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        a = pb.launch(_ToyKernel(flops=1e8), stream=1)
        pb.launch(_ToyKernel(nblocks=1, flops=1e3), stream=2, after=(a,))
        tr = Tracer()
        with activate(tr):
            stats = PlanExecutor(dev).execute(pb.build())
        assert stats.event_waits == 1 and stats.events_recorded == 1
        waits = tr.spans("wait")
        assert len(waits) == 1 and waits[0].clock == SIM

    def test_concurrent_shards_nest_under_dispatch_span(self):
        devs = [Device(execute_numerics=False, name=f"t:dev{i}") for i in range(2)]
        plans = []
        for dev in devs:
            pb = PlanBuilder(dev)
            pb.launch(_ToyKernel(flops=1e7))
            plans.append(pb.build())
        tr = Tracer()
        with activate(tr):
            with tr.span("dispatch", Track("t:serving", "dispatch"), cat="dispatch"):
                execute_concurrently(plans)
        dispatch = tr.spans("dispatch")[0]
        kernels = tr.spans("kernel")
        assert len(kernels) == 2
        assert {k.track.process for k in kernels} == {"t:dev0", "t:dev1"}
        assert all(k.parent_id == dispatch.span_id for k in kernels)

    def test_execution_stats_publish(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel(), tag="potf2")
        pb.barrier()
        stats = PlanExecutor(dev).execute(pb.build())
        r = MetricsRegistry()
        stats.publish(r)
        assert r.counter("executor_launches_total").value() == 1
        assert r.counter("executor_barriers_total").value() == 1


class TestPlanCacheTracing:
    def _plan_once(self, cache, dev, batch, max_n):
        from repro.ops import OpOptions
        from repro.ops import get_op, plan_op

        return plan_op(dev, batch, max_n, get_op("potrf"), OpOptions(), "fused", cache)

    def test_hit_miss_instants_and_build_span(self):
        from repro.core.batch import VBatch

        dev = Device(execute_numerics=False, name="c:dev0")
        batch = VBatch.allocate(dev, [8, 12, 16], "d")
        cache = PlanCache()
        tr = Tracer()
        with activate(tr):
            self._plan_once(cache, dev, batch, 16)
            self._plan_once(cache, dev, batch, 16)
        names = [e.name for e in tr.snapshot() if e.cat == "plan-cache"]
        assert names == ["plan-cache-miss", "plan-cache-hit"]
        builds = tr.spans("plan")
        assert len(builds) == 1 and builds[0].clock == WALL
        assert builds[0].args["nodes"] > 0
        assert builds[0].track.process == "c:dev0"

    def test_publish_gauges(self):
        from repro.core.batch import VBatch

        dev = Device(execute_numerics=False)
        batch = VBatch.allocate(dev, [8, 12], "d")
        cache = PlanCache()
        self._plan_once(cache, dev, batch, 12)
        self._plan_once(cache, dev, batch, 12)
        r = MetricsRegistry()
        cache.publish(r)
        vals = r.as_dict()
        assert vals["plan_cache_hits"] == 1 and vals["plan_cache_misses"] == 1
        assert vals["plan_cache_size"] == 1
        assert vals["plan_cache_hit_ratio"] == pytest.approx(0.5)
        cache.publish(r)  # idempotent re-publish (profile --repeat path)
        assert r.as_dict()["plan_cache_hits"] == 1


class TestLaunchStatsCounters:
    def test_merge_identity_carries_new_counters(self):
        a = LaunchStats(event_waits=2, events_recorded=1, plan_builds=1, batches=1)
        ident = LaunchStats()
        ident.merge(a)
        assert ident.event_waits == 2 and ident.plan_builds == 1
        b = LaunchStats(event_waits=3, plan_builds=0, batches=1)
        ident.merge(b)
        assert ident.event_waits == 5 and ident.plan_builds == 1

    def test_publish_sets_gauges(self):
        stats = LaunchStats(executed_launches=7, event_waits=2, batches=3)
        r = MetricsRegistry()
        stats.publish(r)
        vals = r.as_dict()
        assert vals["driver_executed_launches"] == 7.0
        assert vals["driver_event_waits"] == 2.0
        assert vals["driver_batches"] == 3.0


# ---------------------------------------------------------------------------
# differential: tracing must not move the simulated numbers
# ---------------------------------------------------------------------------
class TestTracingIsTimingNeutral:
    def test_fig3_identical_under_tracing(self, tmp_path):
        from repro.bench.figures import fig3_distributions
        from repro.bench.regression import (
            compare_to_snapshot, load_snapshot, save_snapshot,
        )

        args = dict(batch_count=200, max_size=128, bin_width=16)
        save_snapshot(fig3_distributions(**args), tmp_path / "base.json")
        with activate(Tracer()):
            traced = fig3_distributions(**args)
        drifts = compare_to_snapshot(
            traced, load_snapshot(tmp_path / "base.json"), rel_tol=0.0
        )
        assert all(d.max_rel_drift == 0.0 for d in drifts)

    def test_fig7_identical_under_tracing(self, tmp_path):
        from repro.bench.figures import fig7_crossover
        from repro.bench.regression import (
            compare_to_snapshot, load_snapshot, save_snapshot,
        )

        args = dict(precision="d", nmax_values=(128, 256), batch_count=100)
        save_snapshot(fig7_crossover(**args), tmp_path / "base.json")
        tr = Tracer()
        with activate(tr):
            traced = fig7_crossover(**args)
        drifts = compare_to_snapshot(
            traced, load_snapshot(tmp_path / "base.json"), rel_tol=0.0
        )
        assert all(d.max_rel_drift == 0.0 for d in drifts)
        assert len(tr) > 0  # the tracer really was live
