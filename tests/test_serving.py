"""End-to-end batch-server tests (repro.serving).

The headline guarantee: a request served through the aggregation tier
yields *bit-identical* results to calling ``potrf_vbatched`` directly
on the same aggregated batch — the server adds scheduling, never
numerics.  (The aggregated batch is the unit of comparison because the
fused driver's blocking depends on the launch's ``max_n``: the same
matrix factored inside different batches may legitimately differ in
the last ulp.)
"""

import threading

import numpy as np
import pytest

from repro import make_spd, make_spd_batch
from repro.core import OpOptions, PlanCache, VBatch
from repro.core.interface import potrf_vbatched_max
from repro.device import Device, DeviceGroup
from repro.errors import AdmissionError, ArgumentError, ServingError
from repro.extensions import gesv_vbatched
from repro.ops import run_op_vbatched
from repro.serving import BatchServer, closed_loop
from repro.serving.request import OPS


def _direct_factors(matrices, devices=None):
    """Factor ``matrices`` as ONE direct vbatched launch; return factors."""
    device = devices.devices[0] if devices is not None else Device()
    batch = VBatch.from_host(device, matrices)
    potrf_vbatched_max(
        device, batch, max(m.shape[0] for m in matrices), OpOptions(), devices=devices
    )
    out = batch.download_matrices()
    batch.free()
    return out


def _entry_pair(value):
    """An SPD matrix with one symmetric entry pair set to ``value``."""
    a = make_spd(16, seed=3)
    a[9, 5] = a[5, 9] = value
    return a


def _direct_answer(op, matrix, rhs=None):
    """``op`` on ``matrix`` alone, called directly: the factor, or the
    solution for gesv."""
    device = Device()
    batch = VBatch.from_host(device, [matrix.copy()])
    if op == "gesv":
        solution = [rhs.copy()]
        gesv_vbatched(device, batch, solution)
        out = solution[0]
    else:
        run_op_vbatched(device, batch, None, op, OpOptions())
        out = batch.download_matrices()[0]
    batch.free()
    return out


def _general(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


def _served_batches(responses, requests_by_id):
    """Reconstruct each dispatched batch in the server's launch order."""
    groups: dict[int, list] = {}
    for resp in responses:
        groups.setdefault(resp.batch_id, []).append(resp)
    for batch_id in sorted(groups):
        resps = sorted(
            groups[batch_id],
            key=lambda r: (-requests_by_id[r.req_id].shape[0], r.req_id),
        )
        yield [requests_by_id[r.req_id] for r in resps], resps


class TestSubmitValidation:
    def test_rejects_non_square_matrices(self):
        server = BatchServer(Device())
        with pytest.raises(ArgumentError, match="square"):
            server.submit(np.zeros((4, 5)))
        with pytest.raises(ArgumentError):
            server.submit(np.zeros(4))

    def test_rejects_negative_deadline_and_bad_rhs(self):
        server = BatchServer(Device())
        with pytest.raises(ArgumentError, match="deadline"):
            server.submit(np.eye(4), deadline=-1.0)
        with pytest.raises(ArgumentError, match="rows"):
            server.submit(np.eye(4), np.ones(3))

    def test_constructor_validation(self):
        with pytest.raises(ArgumentError, match="admission"):
            BatchServer(Device(), admission="drop")
        with pytest.raises(ArgumentError, match="queue_limit"):
            BatchServer(Device(), queue_limit=0)

    def test_submit_many_checks_rhs_count(self):
        server = BatchServer(Device())
        with pytest.raises(ArgumentError, match="rhs entries"):
            server.submit_many([np.eye(4), np.eye(4)], rhs=[np.ones(4)])


class TestDifferentialEquivalence:
    def test_served_factor_matches_direct_single_batch(self):
        """FIFO with everything in one window == one direct launch,
        whole-stream bit equality."""
        matrices = make_spd_batch([48, 7, 33, 64, 12, 33], seed=3)
        server = BatchServer(Device(), policy="fifo", max_batch=len(matrices))
        futures = server.submit_many(matrices)
        assert server.pump(force=True) == len(matrices)
        responses = [f.result(timeout=5.0) for f in futures]
        assert all(r.ok and r.batch_id == 0 for r in responses)

        order = sorted(range(len(matrices)), key=lambda i: (-matrices[i].shape[0], i))
        direct = _direct_factors([matrices[i] for i in order])
        for slot, i in enumerate(order):
            assert np.array_equal(responses[i].factor, direct[slot]), f"matrix {i}"

    @pytest.mark.parametrize("policy", ["fifo", "size-bucket", "greedy-window"])
    def test_served_equals_direct_on_same_aggregated_batches(self, policy):
        sizes = [16, 90, 17, 88, 16, 5, 91, 40, 41, 6]
        matrices = make_spd_batch(sizes, seed=11)
        server = BatchServer(Device(), policy=policy, max_batch=4)
        futures = server.submit_many(matrices)
        while server.pump(force=True):
            pass
        responses = [f.result(timeout=5.0) for f in futures]
        by_id = {f_i: m for f_i, m in enumerate(matrices)}
        assert all(r.ok for r in responses)

        checked = 0
        for batch_matrices, resps in _served_batches(responses, by_id):
            direct = _direct_factors(batch_matrices)
            for got, want in zip(resps, direct):
                assert np.array_equal(got.factor, want), f"req {got.req_id}"
                checked += 1
        assert checked == len(matrices)

    def test_multi_device_dispatch_matches_direct_sharded(self):
        sizes = [64, 63, 32, 30, 16, 65, 31, 15]
        matrices = make_spd_batch(sizes, seed=5)
        group = DeviceGroup.simulated(3)
        server = BatchServer(devices=group, policy="fifo", max_batch=len(sizes))
        futures = server.submit_many(matrices)
        server.pump(force=True)
        responses = [f.result(timeout=5.0) for f in futures]
        assert all(r.ok for r in responses)
        assert server.metrics.batches[0].devices_used == 3

        order = sorted(range(len(matrices)), key=lambda i: (-matrices[i].shape[0], i))
        direct = _direct_factors(
            [matrices[i] for i in order], devices=DeviceGroup.simulated(3)
        )
        for slot, i in enumerate(order):
            assert np.array_equal(responses[i].factor, direct[slot]), f"matrix {i}"

    def test_posv_solution_solves_the_system(self):
        rng = np.random.default_rng(7)
        matrices = make_spd_batch([24, 25, 24], seed=9)
        rhs = [rng.standard_normal(m.shape[0]) for m in matrices]
        server = BatchServer(Device(), policy="fifo", max_batch=3)
        futures = server.submit_many(matrices, rhs=rhs)
        server.pump(force=True)
        for m, b, fut in zip(matrices, rhs, futures):
            resp = fut.result(timeout=5.0)
            assert resp.ok and resp.op == "posv"
            np.testing.assert_allclose(m @ resp.solution, b, rtol=1e-9, atol=1e-9)
            # the caller's rhs array is never mutated
            assert not np.array_equal(resp.solution, b)

    @pytest.mark.parametrize(
        "bad, rhs",
        [(-np.eye(16), np.ones(16)), (_entry_pair(np.nan), None), (_entry_pair(np.inf), None)],
        ids=["non-spd-posv", "nan-potrf", "inf-potrf"],
    )
    def test_non_spd_request_fails_alone_not_its_batchmates(self, bad, rhs):
        good = make_spd(16, seed=2)
        server = BatchServer(Device(), policy="fifo", max_batch=2)
        f_bad = server.submit(bad, rhs)
        f_good = server.submit(good)
        server.pump(force=True)
        r_bad, r_good = f_bad.result(5.0), f_good.result(5.0)
        assert not r_bad.ok and r_bad.info > 0 and r_bad.solution is None
        assert r_good.ok
        expected = _direct_factors([bad, good])  # same aggregated launch
        assert np.array_equal(r_good.factor, expected[1])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("op", ["getrf", "gesv", "geqrf", "gesvj"])
    def test_non_finite_request_is_refused_at_submit(self, op, value):
        rhs = np.ones(12) if op == "gesv" else None
        bad = _general(12, seed=1)
        bad[3, 7] = value
        good = _general(12, seed=2)
        server = BatchServer(Device(), policy="fifo", max_batch=2)
        with pytest.raises(ArgumentError, match="NaN or Inf"):
            server.submit(bad, rhs, op=op)
        f_good = server.submit(good, rhs, op=op)
        server.pump(force=True)
        resp = f_good.result(5.0)
        assert resp.ok and resp.batch_size == 1
        got = resp.solution if op == "gesv" else resp.factor
        assert np.array_equal(got, _direct_answer(op, good, rhs))

    def test_non_finite_gesv_rhs_is_refused_at_submit(self):
        server = BatchServer(Device())
        rhs = np.ones(12)
        rhs[5] = np.nan
        with pytest.raises(ArgumentError, match="right-hand side holds NaN"):
            server.submit(_general(12, seed=1), rhs, op="gesv")
        assert server.queue_depth == 0

    @pytest.mark.parametrize("kind", ["0x0", "int64"])
    @pytest.mark.parametrize("op", OPS)
    def test_unservable_matrix_is_refused_at_submit(self, op, kind):
        """Empty orders and dtypes with no batched precision would fail
        only in dispatch (one with an untyped error); refuse them first."""
        n = 0 if kind == "0x0" else 8
        matrix = np.zeros((0, 0)) if kind == "0x0" else np.eye(n, dtype=np.int64)
        rhs = np.ones(n) if op in ("posv", "gesv") else None
        server = BatchServer(Device())
        with pytest.raises(ArgumentError, match="empty" if kind == "0x0" else "unsupported dtype"):
            server.submit(matrix, rhs, op=op)
        assert server.queue_depth == 0

    @pytest.mark.parametrize("rhs", [np.arange(16.0), np.ones((16, 3))], ids=["1d", "2d"])
    @pytest.mark.parametrize("kind", ["zero-column", "all-zero"])
    def test_singular_gesv_fails_alone_not_its_batchmate(self, kind, rhs):
        bad = np.zeros((16, 16))
        if kind == "zero-column":
            bad = _general(16, seed=3)
            bad[:, 5] = 0.0
        good = _general(16, seed=4)
        server = BatchServer(Device(), policy="fifo", max_batch=2)
        f_bad = server.submit(bad, rhs, op="gesv")
        f_good = server.submit(good, rhs, op="gesv")
        server.pump(force=True)
        r_bad, r_good = f_bad.result(5.0), f_good.result(5.0)
        assert r_bad.batch_id == r_good.batch_id
        assert not r_bad.ok and r_bad.solution is None
        assert r_bad.info == (6 if kind == "zero-column" else 1)  # the first zero pivot
        assert r_good.ok
        assert np.array_equal(r_good.solution, _direct_answer("gesv", good, rhs))


class TestAsyncWorker:
    def test_worker_serves_on_window_expiry(self):
        matrices = make_spd_batch([20, 21, 20], seed=4)
        with BatchServer(Device(), max_batch=64, max_wait=1e-3) as server:
            server.start()
            futures = server.submit_many(matrices)
            responses = [f.result(timeout=5.0) for f in futures]
        assert all(r.ok for r in responses)
        assert server.metrics.completed == 3

    def test_worker_survives_a_failing_dispatch(self):
        server = BatchServer(Device(), max_wait=1e-3)
        server.start()
        f_bad = server.submit(np.full((4, 4), np.nan))
        resp = f_bad.result(timeout=5.0)  # NaN input: served, info != 0
        assert not resp.ok
        f_ok = server.submit(make_spd(8, seed=1))
        assert f_ok.result(timeout=5.0).ok
        server.shutdown()

    def test_mid_stream_drain_serves_everything_then_keeps_accepting(self):
        matrices = make_spd_batch([12] * 6, seed=6)
        server = BatchServer(Device(), max_batch=2, max_wait=5e-4)
        server.start()
        futures = server.submit_many(matrices[:4])
        assert server.drain(timeout=5.0)
        assert all(f.done() for f in futures)
        assert server.queue_depth == 0
        late = server.submit_many(matrices[4:])  # drain is not shutdown
        assert all(f.result(timeout=5.0).ok for f in late)
        server.shutdown()

    def test_shutdown_without_drain_cancels_pending(self):
        server = BatchServer(Device(), max_batch=64, max_wait=60.0)
        futures = server.submit_many(make_spd_batch([8, 8, 8], seed=1))
        server.shutdown(drain=False)
        for fut in futures:
            with pytest.raises(ServingError, match="shut down"):
                fut.result(timeout=1.0)
        assert server.metrics.cancelled == 3
        with pytest.raises(AdmissionError):
            server.submit(np.eye(4))
        server.shutdown()  # idempotent

    def test_shutdown_with_drain_serves_queued_requests(self):
        server = BatchServer(Device(), max_batch=64, max_wait=60.0)
        server.start()
        futures = server.submit_many(make_spd_batch([8, 9], seed=1))
        server.shutdown(drain=True, timeout=5.0)
        assert all(f.result(timeout=1.0).ok for f in futures)

    def test_context_manager_drains_on_clean_exit(self):
        with BatchServer(Device(), max_wait=60.0) as server:
            fut = server.submit(make_spd(8, seed=0))
        assert fut.result(timeout=1.0).ok

    def test_start_after_shutdown_raises(self):
        server = BatchServer(Device())
        server.shutdown()
        with pytest.raises(ServingError, match="stopped"):
            server.start()


class TestAdmissionControl:
    def test_reject_mode_fails_fast_when_full(self):
        server = BatchServer(Device(), queue_limit=2, admission="reject")
        server.submit(np.eye(4))
        server.submit(np.eye(4))
        with pytest.raises(AdmissionError, match="queue full"):
            server.submit(np.eye(4))
        assert server.metrics.rejected == 1
        assert server.queue_depth == 2

    def test_block_mode_applies_backpressure(self):
        matrices = make_spd_batch([8] * 12, seed=3)
        server = BatchServer(
            Device(), policy="fifo", max_batch=2, max_wait=1e-4,
            queue_limit=3, admission="block",
        )
        server.start()
        futures = []

        def producer():
            futures.extend(server.submit_many(matrices))

        t = threading.Thread(target=producer)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert all(f.result(timeout=5.0).ok for f in futures)
        assert server.metrics.submitted == 12
        server.shutdown()

    def test_blocked_submitter_unblocks_on_shutdown(self):
        server = BatchServer(Device(), queue_limit=1, admission="block")
        server.submit(np.eye(4))
        errors = []

        def blocked():
            try:
                server.submit(np.eye(4))
            except AdmissionError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        server.shutdown(drain=False)
        t.join(timeout=5.0)
        assert not t.is_alive() and len(errors) == 1


class TestDeadlinesAndMetrics:
    def test_deadline_pressure_flushes_and_misses_are_counted(self):
        t = [0.0]
        server = BatchServer(
            Device(execute_numerics=False),
            policy="fifo", max_batch=64, max_wait=60.0,
            clock=lambda: t[0],
        )
        fut = server.submit(np.zeros((16, 16)), deadline=1.0)
        assert server.pump() == 0  # deadline still ahead, window open
        t[0] = 10.0
        assert server.pump() == 1  # deadline passed: flush without force
        resp = fut.result(timeout=1.0)
        assert resp.deadline_missed  # served late, never dropped
        assert server.metrics.deadline_misses == 1

    def test_timing_mode_reports_no_payloads_but_full_metrics(self):
        server = BatchServer(
            Device(execute_numerics=False), policy="fifo", max_batch=4,
            plan_cache=PlanCache(),
        )
        sizes = [32, 32, 32, 32] * 3
        responses = closed_loop(
            server, [np.zeros((n, n)) for n in sizes], concurrency=4
        )
        assert all(r.ok and r.factor is None and r.solution is None for r in responses)
        assert all(r.latency_sim > 0 for r in responses)
        # identical 4x32 batches: the second and third launches re-serve
        # the plan the first one built
        assert server.metrics.launch_stats.plan_cache_misses == 1
        assert server.metrics.launch_stats.plan_cache_hits == 2
        server.shutdown()
        snap = server.metrics.snapshot()
        assert snap["requests"]["completed"] == 12
        assert snap["throughput"]["batches"] == 3
        assert snap["batch_size_histogram"] == {"4": 3}
        assert snap["batching"]["efficiency"] == 1.0
        assert snap["plan_cache"] == {"hits": 2, "misses": 1}
        assert snap["latency_sim_s"]["p99"] >= snap["latency_sim_s"]["p50"] > 0

    def test_device_memory_is_returned_after_every_batch(self):
        device = Device(execute_numerics=False)
        server = BatchServer(device, policy="fifo", max_batch=8, plan_cache=PlanCache())
        baseline = device.memory.used
        server.submit_many([np.zeros((48, 48)) for _ in range(8)])
        server.pump(force=True)
        resident = device.memory.used  # the one cached plan's footprint
        for _ in range(4):
            server.submit_many([np.zeros((48, 48)) for _ in range(8)])
            server.pump(force=True)
            assert device.memory.used == resident  # steady state: no growth
        server.shutdown()
        assert server.plan_cache.evict(device=device) == 1
        device.pool.trim()  # plan workspaces parked in the pool
        assert device.memory.used == baseline  # eviction returns it all

    def test_batching_efficiency_tracks_size_spread(self):
        server = BatchServer(Device(execute_numerics=False), policy="fifo", max_batch=2)
        server.submit_many([np.zeros((8, 8)), np.zeros((64, 64))])
        server.pump(force=True)
        snap = server.metrics.snapshot()
        assert 0.0 < snap["batching"]["efficiency"] < 0.6  # heavy padding waste


class TestMetricsExposition:
    """The registry-backed ServerMetrics renders Prometheus text."""

    def test_expose_covers_requests_latency_and_driver(self):
        server = BatchServer(Device(execute_numerics=False), policy="fifo", max_batch=4)
        server.submit_many([np.zeros((16, 16)) for _ in range(4)])
        server.pump(force=True)
        server.shutdown()
        text = server.metrics.expose()
        assert 'serving_requests_total{outcome="completed"} 4' in text
        assert 'serving_requests_total{outcome="submitted"} 4' in text
        assert "# TYPE serving_latency_seconds summary" in text
        assert 'serving_latency_seconds{clock="sim",quantile="0.5"}' in text
        assert "serving_batch_size_bucket" in text
        # LaunchStats rides along under its own prefix.
        assert "serving_driver_executed_launches" in text

    def test_shared_registry_can_be_injected(self):
        from repro.observability import MetricsRegistry
        from repro.serving.metrics import ServerMetrics

        registry = MetricsRegistry()
        metrics = ServerMetrics(registry=registry)
        metrics.record_submit(queue_depth=1)
        assert metrics.registry is registry
        assert registry.counter(
            "serving_requests_total", labels=("outcome",)
        ).value(outcome="submitted") == 1
