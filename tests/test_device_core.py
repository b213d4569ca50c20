"""Tests for timeline, memory, scheduler, streams and the Device facade."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import (
    BlockScheduler,
    BlockWork,
    Device,
    GlobalMemory,
    Interval,
    Kernel,
    LaunchConfig,
    Timeline,
)
from repro.device.power import GpuPowerModel, K40C_POWER
from repro.errors import DeviceOutOfMemory, StreamError
from repro.types import Precision


class TestTimeline:
    def test_advance_accumulates(self):
        tl = Timeline()
        tl.advance(1.0, "a")
        tl.advance(2.0, "b")
        assert tl.now == pytest.approx(3.0)
        assert [iv.category for iv in tl.intervals] == ["a", "b"]

    def test_record_moves_now_forward_only(self):
        tl = Timeline()
        tl.record(5.0, 7.0, "x")
        tl.record(1.0, 2.0, "y")
        assert tl.now == pytest.approx(7.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().advance(-1.0, "bad")
        with pytest.raises(ValueError):
            Interval(2.0, 1.0, "bad")

    def test_utilization_validated(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0, "x", utilization=1.5)

    def test_busy_time_filtered(self):
        tl = Timeline()
        tl.advance(1.0, "kernel:gemm")
        tl.advance(2.0, "kernel:syrk")
        tl.advance(4.0, "memcpy_h2d")
        assert tl.busy_time("kernel:") == pytest.approx(3.0)
        assert tl.busy_time() == pytest.approx(7.0)

    def test_categories_profile(self):
        tl = Timeline()
        tl.advance(1.0, "a")
        tl.advance(2.0, "a")
        assert tl.categories() == {"a": pytest.approx(3.0)}

    def test_reset(self):
        tl = Timeline()
        tl.advance(1.0, "a")
        tl.reset()
        assert tl.now == 0.0 and tl.intervals == []


class TestGlobalMemory:
    def test_alloc_and_accounting(self):
        mem = GlobalMemory(1000)
        a = mem.alloc((10,), np.float64)  # 80 B
        assert mem.used == 80
        assert a.data.shape == (10,)
        assert np.all(a.data == 0)

    def test_oom_raises_with_details(self):
        mem = GlobalMemory(100)
        mem.alloc((10,), np.float64)
        with pytest.raises(DeviceOutOfMemory) as ei:
            mem.alloc((10,), np.float64)
        assert ei.value.requested == 80
        assert ei.value.free == 20

    def test_free_returns_capacity(self):
        mem = GlobalMemory(100)
        a = mem.alloc((10,), np.float64)
        a.free()
        assert mem.used == 0
        b = mem.alloc((12,), np.float64)  # 96 B now fits
        assert b.nbytes == 96

    def test_double_free_is_idempotent(self):
        mem = GlobalMemory(100)
        a = mem.alloc((2,), np.float64)
        a.free()
        a.free()
        assert mem.used == 0

    def test_peak_tracking(self):
        mem = GlobalMemory(1000)
        a = mem.alloc((50,), np.float64)
        a.free()
        mem.alloc((10,), np.float64)
        assert mem.peak_used == 400

    def test_free_all(self):
        mem = GlobalMemory(1000)
        mem.alloc((5,), np.float32)
        mem.alloc((5,), np.float32)
        assert mem.live_allocations == 2
        mem.free_all()
        assert mem.used == 0 and mem.live_allocations == 0

    def test_precision_property(self):
        mem = GlobalMemory(1000)
        assert mem.alloc((2, 2), np.complex64).precision is Precision.C

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            GlobalMemory(0)


class TestBlockScheduler:
    def test_single_wave(self):
        s = BlockScheduler()
        res = s.makespan(np.array([2.0]), np.array([10]), slots=10)
        assert res.makespan == pytest.approx(2.0)
        assert res.utilization == pytest.approx(1.0)

    def test_two_waves(self):
        s = BlockScheduler()
        res = s.makespan(np.array([2.0]), np.array([11]), slots=10)
        assert res.makespan == pytest.approx(4.0)

    def test_imbalance_penalty(self):
        """A single long block after short ones stretches the makespan."""
        s = BlockScheduler()
        d = np.array([1.0, 100.0])
        c = np.array([10, 1])
        res = s.makespan(d, c, slots=10)
        assert res.makespan == pytest.approx(101.0)

    def test_exact_matches_hand_schedule(self):
        s = BlockScheduler()
        # 2 slots, blocks [3, 1, 2, 2] in order: slot A: 3, slot B: 1+2+2=5.
        res = s.makespan(np.array([3.0, 1.0, 2.0, 2.0]), None, slots=2)
        assert res.makespan == pytest.approx(5.0)

    def test_analytic_close_to_exact_for_uniform(self):
        s = BlockScheduler()
        d = np.full(500, 1.0)
        exact = s.makespan(d, None, 15, force="exact").makespan
        approx = s.makespan(d, None, 15, force="analytic").makespan
        assert approx == pytest.approx(exact, rel=0.1)

    def test_empty_launch(self):
        s = BlockScheduler()
        res = s.makespan(np.array([]), None, slots=4)
        assert res.makespan == 0.0
        assert res.utilization == 0.0

    def test_zero_count_groups_ignored(self):
        s = BlockScheduler()
        res = s.makespan(np.array([5.0, 1.0]), np.array([0, 3]), slots=3)
        assert res.makespan == pytest.approx(1.0)

    def test_validation(self):
        s = BlockScheduler()
        with pytest.raises(ValueError):
            s.makespan(np.array([1.0]), None, slots=0)
        with pytest.raises(ValueError):
            s.makespan(np.array([-1.0]), None, slots=2)
        with pytest.raises(ValueError):
            s.makespan(np.array([1.0]), np.array([1, 2]), slots=2)
        with pytest.raises(ValueError):
            BlockScheduler(exact_threshold=-1)

    @given(
        durations=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=60),
        slots=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bounds(self, durations, slots):
        """Exact makespan obeys the classic list-scheduling bounds."""
        s = BlockScheduler()
        d = np.array(durations)
        res = s.makespan(d, None, slots, force="exact")
        lower = max(d.max(), d.sum() / slots)
        upper = d.sum() / slots + d.max()
        assert lower - 1e-12 <= res.makespan <= upper + 1e-12

    @given(
        durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40),
        slots=st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_analytic_within_bounds(self, durations, slots):
        s = BlockScheduler()
        d = np.array(durations)
        res = s.makespan(d, None, slots, force="analytic")
        assert res.makespan >= max(d.max(), d.sum() / slots) - 1e-12
        assert res.makespan <= d.sum() / slots + d.max() + 1e-12

    @given(
        d=st.lists(st.floats(0.0, 1e-3, allow_subnormal=False), min_size=1, max_size=6),
        c=st.lists(st.integers(0, 40), min_size=6, max_size=6),
        slots=st.integers(1, 64),
        force=st.sampled_from([None, "exact", "analytic"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_group_matches_the_array_path(self, d, c, slots, force):
        # A one-group launch reduces on plain numbers; the result must
        # be bit-identical to the general computation.
        from repro.device.scheduler import _exact_list_schedule

        d = np.array(d)
        c = np.array(c[: len(d)], dtype=np.int64)
        res = BlockScheduler().makespan(d, c, slots, force=force)
        keep = c > 0
        dk, ck = d[keep], c[keep]
        if dk.size == 0:
            assert (res.makespan, res.total_block_time) == (0.0, 0.0)
            return
        total_time, max_d = float(dk @ ck), float(dk.max())
        if force == "analytic":
            want = max(max_d, total_time / slots + 0.5 * (1.0 - 1.0 / slots) * max_d)
        else:
            want = _exact_list_schedule(dk, ck, slots)
        assert (res.makespan, res.total_block_time) == (want, total_time)
        assert res.exact == (force != "analytic")


class _ToyKernel(Kernel):
    """Minimal kernel for Device tests: N identical compute blocks."""

    name = "toy"

    def __init__(self, nblocks=15, flops=1e6, bytes_=0.0, threads=128,
                 shared=0, precision=Precision.D, etm="classic",
                 active=None, serial=0.0):
        self.etm_mode = etm
        super().__init__()
        self._prec = precision
        self.nblocks = nblocks
        self.flops = flops
        self.bytes_ = bytes_
        self.threads = threads
        self.shared = shared
        self.active = active
        self.serial = serial
        self.ran = False

    @property
    def precision(self):
        return self._prec

    def launch_config(self):
        return LaunchConfig(self.threads, self.shared)

    def block_arrays(self):
        return BlockWork.pack([
            BlockWork(self.flops, self.bytes_, serial_iters=self.serial,
                      active_threads=self.active, count=self.nblocks)
        ])

    def run_numerics(self, operands):
        self.ran = True


class TestDeviceLaunch:
    @given(
        flops=st.floats(0.0, 1e9), bytes_=st.floats(0.0, 1e7), serial=st.floats(0.0, 64.0),
        active=st.one_of(st.none(), st.integers(0, 1100)), threads=st.sampled_from([32, 96, 1024]),
        etm=st.sampled_from(["classic", "aggressive"]), prec=st.sampled_from(list(Precision)),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_group_on_scalars_matches_the_array_path(
        self, flops, bytes_, serial, active, threads, etm, prec
    ):
        # _compute_launch evaluates a single work group on numpy scalars;
        # the durations must equal the array evaluation bit for bit.
        from repro.types import precision_info

        dev = Device(execute_numerics=False)
        k = _ToyKernel(nblocks=7, flops=flops, bytes_=bytes_, threads=threads, precision=prec,
                       etm=etm, active=active, serial=serial)
        config = k.launch_config()
        occ = dev.spec.occupancy(config.threads_per_block, config.shared_mem_per_block)
        *works, counts = k.block_arrays()
        args = (occ, precision_info(prec), k, config, 7)
        array = dev._block_durations(*works, *args)
        scalar = dev._block_durations(*(a[0] for a in works), *args)
        assert np.atleast_1d(scalar).tolist() == array.tolist()
        schedule = dev.scheduler.makespan(array, counts, occ.concurrent_blocks)
        assert dev._compute_launch(k)[1].makespan == schedule.makespan

    def test_launch_advances_time(self):
        dev = Device()
        rec = dev.launch(_ToyKernel())
        assert rec.duration > 0
        assert dev.synchronize() >= rec.end

    def test_numerics_executed_by_default(self):
        dev = Device()
        k = _ToyKernel()
        dev.launch(k)
        assert k.ran

    def test_numerics_skippable(self):
        dev = Device(execute_numerics=False)
        k = _ToyKernel()
        dev.launch(k)
        assert not k.ran

    def test_launch_overhead_floor(self):
        """An empty kernel still costs the launch overhead."""
        dev = Device()
        dev.launch(_ToyKernel(nblocks=1, flops=0.0))
        assert dev.synchronize() >= dev.spec.kernel_launch_overhead

    def test_more_work_takes_longer(self):
        d1 = Device()
        d1.launch(_ToyKernel(flops=1e6))
        t1 = d1.synchronize()
        d2 = Device()
        d2.launch(_ToyKernel(flops=1e9))
        t2 = d2.synchronize()
        assert t2 > t1

    def test_double_precision_slower_than_single(self):
        ds = Device()
        ds.launch(_ToyKernel(flops=1e9, precision=Precision.S))
        dd = Device()
        dd.launch(_ToyKernel(flops=1e9, precision=Precision.D))
        assert dd.synchronize() > ds.synchronize()

    def test_memory_bound_kernel(self):
        dev = Device()
        compute = _ToyKernel(flops=1e3, bytes_=1e8)
        rec = dev.launch(compute)
        # 15 blocks x 1e8 B at ~216 GB/s >> compute time
        assert rec.duration > 15 * 1e8 / dev.spec.global_mem_bandwidth / 16

    def test_terminated_blocks_cost_only_overhead(self):
        dev = Device()
        live = dev.launch(_ToyKernel(flops=1e9))
        dev.reset_clock()
        dead = dev.launch(_ToyKernel(flops=1e9, active=0))
        assert dead.duration < live.duration / 10

    def test_aggressive_beats_classic_with_idle_threads(self):
        """Paper §IV-D: ETM-aggressive 11-35% faster when threads idle."""
        base = dict(nblocks=450, flops=1e7, threads=128, active=48)
        dc = Device()
        dc.launch(_ToyKernel(etm="classic", **base))
        tc = dc.synchronize()
        da = Device()
        da.launch(_ToyKernel(etm="aggressive", **base))
        ta = da.synchronize()
        assert ta < tc
        assert 1.05 < tc / ta < 1.8

    def test_no_penalty_when_all_threads_active(self):
        base = dict(nblocks=60, flops=1e7, threads=128, active=128)
        dc = Device()
        dc.launch(_ToyKernel(etm="classic", **base))
        da = Device()
        da.launch(_ToyKernel(etm="aggressive", **base))
        assert dc.synchronize() == pytest.approx(da.synchronize())

    def test_serial_iters_add_latency(self):
        dev = Device()
        fast = dev.launch(_ToyKernel(nblocks=1, flops=0.0, serial=0.0))
        dev.reset_clock()
        slow = dev.launch(_ToyKernel(nblocks=1, flops=0.0, serial=1000.0))
        expected = (
            1000 * dev.calibration.serial_op_latency * dev.calibration.serial_fp64_scale
        )  # the toy kernel runs in double precision
        assert slow.duration - fast.duration == pytest.approx(expected, rel=1e-6)

    def test_serial_latency_fp64_scale(self):
        ds = Device()
        rs = ds.launch(_ToyKernel(nblocks=1, flops=0.0, serial=1000.0, precision=Precision.S))
        dd = Device()
        rd = dd.launch(_ToyKernel(nblocks=1, flops=0.0, serial=1000.0, precision=Precision.D))
        assert rd.duration > rs.duration

    def test_shared_memory_reduces_occupancy_and_throughput(self):
        """Big smem footprint (1 block/SM) hurts latency hiding."""
        light = Device()
        light.launch(_ToyKernel(nblocks=240, flops=1e8, shared=0))
        heavy = Device()
        heavy.launch(_ToyKernel(nblocks=240, flops=1e8, shared=40 * 1024))
        assert heavy.synchronize() > light.synchronize()

    def test_launch_records_kept(self):
        dev = Device()
        dev.launch(_ToyKernel())
        dev.launch(_ToyKernel())
        assert len(dev.launches) == 2
        assert dev.launches[0].kernel_name == "toy"
        assert dev.launches[0].blocks == 15

    def test_reset_clock(self):
        dev = Device()
        dev.launch(_ToyKernel())
        dev.reset_clock()
        assert dev.synchronize() == 0.0
        assert dev.launches == []

    def test_invalid_etm_mode_rejected(self):
        with pytest.raises(ValueError, match="etm_mode"):
            _ToyKernel(etm="bogus")


class TestStreamsAndTransfers:
    def test_same_stream_serializes(self):
        dev = Device()
        r1 = dev.launch(_ToyKernel(flops=1e8))
        r2 = dev.launch(_ToyKernel(flops=1e8))
        assert r2.start >= r1.end

    def test_different_streams_overlap(self):
        dev = Device()
        s1, s2 = dev.create_stream(), dev.create_stream()
        # Tiny kernels: SM area is small, so overlap is real.
        r1 = dev.launch(_ToyKernel(nblocks=1, flops=1e7), stream=s1)
        r2 = dev.launch(_ToyKernel(nblocks=1, flops=1e7), stream=s2)
        assert r2.start < r1.end

    def test_area_serialization_under_saturation(self):
        """Two device-filling kernels cannot truly overlap."""
        dev = Device()
        s1, s2 = dev.create_stream(), dev.create_stream()
        k = dict(nblocks=1000, flops=1e8)
        dev.launch(_ToyKernel(**k), stream=s1)
        dev.launch(_ToyKernel(**k), stream=s2)
        two_stream = dev.synchronize()
        serial = Device()
        serial.launch(_ToyKernel(**k))
        serial.launch(_ToyKernel(**k))
        assert two_stream >= 0.9 * serial.synchronize() / 1.1

    def test_sm_area_frontier_shared_across_streams(self):
        """`_sm_area_free_at` is one frontier for the whole machine: a
        launch on any stream pushes it, and the next launch on a
        *different* stream starts its SM occupation behind it."""
        dev = Device(execute_numerics=False)
        s1, s2 = dev.create_stream(), dev.create_stream()
        r1 = dev.launch(_ToyKernel(nblocks=1000, flops=1e8), stream=s1)
        area_after_one = dev._sm_area_free_at
        assert area_after_one > r1.start
        r2 = dev.launch(_ToyKernel(nblocks=1000, flops=1e8), stream=s2)
        area_after_two = dev._sm_area_free_at
        assert area_after_two > area_after_one
        # The second kernel cannot finish before the area the first
        # consumed has drained, even though its stream was idle.
        assert r2.end >= area_after_one
        # synchronize() waits for the shared frontier, not just streams.
        assert dev.synchronize() >= area_after_two

    def test_n_streams_no_faster_than_serial_when_saturated(self):
        """Fanning saturating kernels over N streams cannot beat the
        same sequence on one stream by more than launch overhead."""
        k = dict(nblocks=2000, flops=5e7)
        fan = Device(execute_numerics=False)
        for _ in range(4):
            fan.launch(_ToyKernel(**k), stream=fan.create_stream())
        serial = Device(execute_numerics=False)
        for _ in range(4):
            serial.launch(_ToyKernel(**k))
        t_fan, t_serial = fan.synchronize(), serial.synchronize()
        # Streams can hide launch overhead and wave-imbalance tails but
        # never the SM-area itself: nowhere near 4x scaling.
        assert t_fan >= 0.8 * t_serial
        assert t_fan <= t_serial

    def test_reset_clock_clears_sm_area_frontier(self):
        dev = Device(execute_numerics=False)
        dev.launch(_ToyKernel(nblocks=1000, flops=1e8))
        assert dev._sm_area_free_at > 0
        dev.reset_clock()
        assert dev._sm_area_free_at == 0.0

    def test_upload_download_roundtrip(self):
        dev = Device()
        host = np.arange(12, dtype=np.float64).reshape(3, 4)
        darr = dev.upload(host)
        t_after_upload = dev.synchronize()
        assert t_after_upload > 0
        back = dev.download(darr)
        np.testing.assert_array_equal(back, host)
        assert dev.synchronize() > t_after_upload

    def test_upload_without_numerics_keeps_timing(self):
        dev = Device(execute_numerics=False)
        host = np.ones((100, 100))
        dev.upload(host)
        assert dev.synchronize() >= host.nbytes / dev.spec.pcie_bandwidth

    def test_events(self):
        dev = Device()
        s = dev.create_stream()
        e0 = s.record_event()
        dev.launch(_ToyKernel(flops=1e8), stream=s)
        e1 = s.record_event()
        assert e1.elapsed_since(e0) > 0

    def test_wait_event_orders_streams(self):
        dev = Device()
        s1, s2 = dev.create_stream(), dev.create_stream()
        dev.launch(_ToyKernel(flops=1e9), stream=s1)
        ev = s1.record_event()
        s2.wait_event(ev)
        r2 = dev.launch(_ToyKernel(nblocks=1, flops=1e3), stream=s2)
        assert r2.start >= ev.timestamp

    def test_wait_unrecorded_event_raises(self):
        dev = Device()
        s = dev.create_stream()
        from repro.device.stream import Event

        with pytest.raises(StreamError):
            s.wait_event(Event(s, None))


class TestGpuPower:
    def test_power_bounds(self):
        assert K40C_POWER.power(0.0) == pytest.approx(25.0)
        # Full slot occupancy draws idle + activity-scaled dynamic range.
        expected = 25.0 + (235.0 - 25.0) * K40C_POWER.activity_scale
        assert K40C_POWER.power(1.0) == pytest.approx(expected)
        assert K40C_POWER.power(1.0) <= 235.0

    def test_power_validates_utilization(self):
        with pytest.raises(ValueError):
            K40C_POWER.power(1.2)

    def test_energy_integrates_idle_gap(self):
        tl = Timeline()
        tl.record(0.0, 1.0, "kernel:x", utilization=1.0)
        # 1s at full-activity draw + 1s idle at 25W
        busy = K40C_POWER.power(1.0)
        assert K40C_POWER.energy(tl, total_time=2.0) == pytest.approx(busy + 25.0)

    def test_busy_device_uses_more_energy(self):
        dev = Device()
        dev.launch(_ToyKernel(flops=1e9))
        t = dev.synchronize()
        busy = K40C_POWER.energy(dev.timeline, t)
        assert busy > K40C_POWER.idle_watts * t

    def test_model_validation(self):
        with pytest.raises(ValueError):
            GpuPowerModel(idle_watts=100.0, max_watts=50.0)
