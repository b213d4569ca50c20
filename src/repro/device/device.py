"""The simulated accelerator: launch, memory, transfers, timing.

``Device`` glues the pieces together.  A kernel launch:

1. pays the host-side launch overhead (launches pipeline: the host can
   run ahead of the device);
2. resolves occupancy for the kernel's :class:`LaunchConfig`;
3. converts each work group of :meth:`Kernel.block_arrays` into a
   block duration via the calibrated cost model (`_block_durations`);
4. schedules the blocks onto SM slots (`BlockScheduler`) for the
   kernel's standalone makespan;
5. serializes against the device-wide SM *area* so concurrent streams
   share the machine instead of overlapping for free;
6. optionally executes the kernel's NumPy numerics.

Steps 2-4 depend only on the kernel's cost inputs, so
:meth:`Device.prepare_launch` memoizes them by content: a launch whose
:meth:`Kernel.memo_key` was seen before on this device reuses the
stored ``(occupancy, schedule, total_blocks)`` without building its
block works.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..types import precision_info
from .calibration import Calibration, K40C_CALIBRATION
from .clock import Timeline
from .kernel import Kernel
from .memory import DeviceArray, GlobalMemory
from .pool import WorkspacePool
from .scheduler import BlockScheduler, ScheduleResult
from .spec import DeviceSpec, K40C, Occupancy
from .stream import Stream

__all__ = ["Device", "LaunchRecord", "cost_memo_stats", "publish_cost_memo"]

_device_names = itertools.count()


class LaunchRecord:
    """Bookkeeping for one kernel launch (inspection and tests)."""

    __slots__ = ("kernel_name", "start", "end", "schedule", "occupancy", "blocks")

    def __init__(
        self,
        kernel_name: str,
        start: float,
        end: float,
        schedule: ScheduleResult,
        occupancy: Occupancy,
        blocks: int,
    ):
        self.kernel_name = kernel_name
        self.start = start
        self.end = end
        self.schedule = schedule
        self.occupancy = occupancy
        self.blocks = blocks

    @property
    def duration(self) -> float:
        return self.end - self.start


class Device:
    """A simulated GPU with calibrated performance behaviour.

    Parameters
    ----------
    spec:
        Hardware description (default: the paper's Tesla K40c).
    calibration:
        Cost-model constants (default: K40c calibration).
    execute_numerics:
        When False, kernels skip their functional plane.  Timing is
        unaffected (the cost model never reads matrix values), which
        lets the figure sweeps run orders of magnitude faster.
    exact_threshold:
        Grid-size cutoff between exact and analytic block scheduling.
    name:
        Label for trace tracks and reports (default ``devN``, N from a
        process-wide counter).  Purely cosmetic: never read by the cost
        model.
    """

    #: Cost-memo entries kept before the memo starts over: 3x the most
    #: distinct launch shapes one device sees in the benchmarks/e2e
    #: workloads (2,741, a serve-sim per-request pass); ~120-byte keys.
    COST_MEMO_CAP = 8192

    def __init__(
        self,
        spec: DeviceSpec = K40C,
        calibration: Calibration = K40C_CALIBRATION,
        execute_numerics: bool = True,
        exact_threshold: int = 50_000,
        name: str | None = None,
    ):
        self.name = f"dev{next(_device_names)}" if name is None else str(name)
        self.spec = spec
        self.calibration = calibration
        self.execute_numerics = execute_numerics
        self.memory = GlobalMemory(spec.global_mem_bytes)
        self.pool = WorkspacePool(self.memory)
        self.scheduler = BlockScheduler(exact_threshold)
        self.timeline = Timeline()
        self.host_time = 0.0
        self._sm_area_free_at = 0.0
        self._stream_ids = itertools.count(1)
        self.default_stream = Stream(self, 0)
        self.launches: list[LaunchRecord] = []
        self._cost_memo: dict[tuple, tuple] = {}
        self._cost_memo_scope: tuple | None = None
        self.cost_memo_hits = 0
        self.cost_memo_misses = 0

    # ------------------------------------------------------------------
    # time management
    # ------------------------------------------------------------------
    def _host_wait(self, until: float) -> None:
        self.host_time = max(self.host_time, until)

    def synchronize(self) -> float:
        """Drain all streams; returns the simulated wall-clock time."""
        self._host_wait(self.default_stream.ready_time)
        self._host_wait(self._sm_area_free_at)
        self._host_wait(self.timeline.now)
        return self.host_time

    def elapsed(self) -> float:
        """Current simulated time (after an implicit synchronize)."""
        return self.synchronize()

    def reset_clock(self) -> None:
        """Zero all timing state (a new experiment on a warm device)."""
        self.timeline.reset()
        self.host_time = 0.0
        self._sm_area_free_at = 0.0
        self.default_stream.ready_time = 0.0
        self.launches.clear()

    def create_stream(self) -> Stream:
        return Stream(self, next(self._stream_ids))

    # ------------------------------------------------------------------
    # memory and transfers
    # ------------------------------------------------------------------
    def alloc(self, shape, dtype) -> DeviceArray:
        return self.memory.alloc(shape, dtype)

    def upload(self, host_array: np.ndarray, stream: Stream | None = None) -> DeviceArray:
        """Allocate and copy host -> device, charging PCIe time."""
        dev = self.alloc(host_array.shape, host_array.dtype)
        if self.execute_numerics:
            # Skip materializing the zero payload just to overwrite it.
            dev.data = host_array.copy()
        self._transfer(host_array.nbytes, "memcpy_h2d", stream)
        return dev

    def download(self, dev: DeviceArray, stream: Stream | None = None) -> np.ndarray:
        """Copy device -> host, charging PCIe time."""
        self._transfer(dev.nbytes, "memcpy_d2h", stream)
        return dev.data.copy()

    def _transfer(self, nbytes: int, category: str, stream: Stream | None) -> None:
        stream = stream or self.default_stream
        chunks = max(1, math.ceil(nbytes / self.calibration.max_transfer_chunk))
        duration = nbytes / self.spec.pcie_bandwidth + chunks * self.spec.pcie_latency
        start = max(self.host_time, stream.ready_time)
        stream.ready_time = start + duration
        self.timeline.record(start, stream.ready_time, category, utilization=0.0)

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------
    def launch(
        self, kernel: Kernel, stream: Stream | None = None,
        run_numerics: bool | None = None, operands: tuple = (),
    ) -> LaunchRecord:
        """Launch a kernel asynchronously on ``stream`` (default stream).

        ``operands`` are the containers the kernel's numerics run on
        (:mod:`repro.device.kernel`).  ``run_numerics=False`` commits the
        launch to the simulated clock but leaves the functional plane to
        the caller (a sharded run launches its shards this way and runs
        the numerics once over the whole batch); ``None`` follows
        ``self.execute_numerics``.
        """
        stream = stream or self.default_stream
        occ, schedule, total_blocks = self.prepare_launch(kernel)

        # Host-side issue cost; the host then runs ahead (async launch).
        issue_done = self.host_time + self.spec.kernel_launch_overhead
        self.host_time = issue_done

        # In-order within the stream; across streams, execution may
        # overlap but the total SM area (block-seconds / slots) is a
        # shared resource, so heavy concurrent work serializes.  (The
        # conditionals are max() spelled out: this runs once per launch.)
        ready = stream.ready_time
        start = ready if ready > issue_done else issue_done
        slots = occ.concurrent_blocks
        area_time = schedule.total_block_time / (slots if slots > 1 else 1)
        free_at = self._sm_area_free_at
        area_end = (free_at if free_at > start else start) + area_time
        self._sm_area_free_at = area_end
        end = start + schedule.makespan
        if area_end > end:
            end = area_end
        stream.ready_time = end

        self.timeline.record(start, end, f"kernel:{kernel.name}", schedule.utilization)
        record = LaunchRecord(kernel.name, start, end, schedule, occ, total_blocks)
        self.launches.append(record)

        if self.execute_numerics and run_numerics is not False:
            kernel.run_numerics(operands)
        return record

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def prepare_launch(self, kernel: Kernel):
        """Resolve a launch's cost-model inputs without touching clocks.

        Returns ``(occupancy, schedule, total_blocks)`` — everything
        :meth:`launch` needs besides the live stream state.  Pure with
        respect to device time, so the plan optimizer can evaluate it at
        plan time.  Results are memoized on this device by
        :meth:`Kernel.memo_key`, within the current ``spec``,
        ``calibration`` and ``scheduler.exact_threshold`` (changing any
        of them starts a fresh memo); kernels whose ``cost_key()`` is
        ``None`` are always computed.
        """
        scope = self._cost_memo_scope
        if (
            scope is None
            or scope[0] is not self.spec
            or scope[1] is not self.calibration
            or scope[2] != self.scheduler.exact_threshold
        ):
            self._cost_memo.clear()
            self._cost_memo_scope = (self.spec, self.calibration, self.scheduler.exact_threshold)
        key = kernel.memo_key()
        if key:
            hit = self._cost_memo.get(key)
            if hit is not None:
                self.cost_memo_hits += 1
                return hit
        self.cost_memo_misses += 1
        result = self._compute_launch(kernel)
        if key:
            if len(self._cost_memo) >= self.COST_MEMO_CAP:
                self._cost_memo.clear()
            self._cost_memo[key] = result
        return result

    def _compute_launch(self, kernel: Kernel):
        """The uncached cost model behind :meth:`prepare_launch`."""
        config = kernel.launch_config()
        occ = self.spec.occupancy(
            config.threads_per_block,
            config.shared_mem_per_block,
            config.regs_per_thread,
        )
        info = precision_info(kernel.precision)
        *works, counts = kernel.block_arrays()
        total_blocks = int(counts.sum())
        if len(counts) == 1:
            # One group (every single-matrix launch): the same expressions
            # on numpy scalars cost a fraction of the array calls.
            works = [a[0] for a in works]
        durations = np.atleast_1d(
            self._block_durations(*works, occ, info, kernel, config, total_blocks)
        )
        schedule = self.scheduler.makespan(durations, counts, occ.concurrent_blocks)
        return occ, schedule, total_blocks

    def _block_durations(
        self,
        flops: np.ndarray,
        bytes_: np.ndarray,
        serial: np.ndarray,
        active_threads: np.ndarray,
        occ: Occupancy,
        info,
        kernel: Kernel,
        config,
        total_blocks: int,
    ) -> np.ndarray:
        """Duration of one thread block of each work group under the
        calibrated model, for the arrays of :meth:`Kernel.block_arrays`
        (or one group's numpy scalars)."""
        cal = self.calibration
        threads_per_block = config.threads_per_block
        active = np.minimum(active_threads, threads_per_block)
        terminated = active == 0.0

        warp = self.spec.warp_size
        # Clamped to one warp for terminated groups to keep the shared
        # expressions finite; those entries are overwritten at the end.
        live_warps = np.maximum(np.ceil(active / warp), 1.0)

        # Latency hiding: throughput scales with resident warps (times
        # the kernel's per-warp ILP) until the pipeline is saturated.
        latency_eff = min(
            1.0, occ.resident_warps_per_sm * config.ilp / cal.full_throughput_warps
        )
        sm_share_rate = (
            self.spec.peak_flops_per_sm(info)
            * cal.issue_efficiency
            * kernel.compute_efficiency
            * latency_eff
            / occ.blocks_per_sm
        )
        # A block can never issue faster than its live warps' lanes: a
        # one-warp block on an otherwise-empty SM still computes at one
        # warp's width.  This is the under-occupancy penalty that makes
        # mixed-size launches slow and implicit sorting worthwhile.
        warp_issue_rate = (
            live_warps * warp * 2.0 * self.spec.clock_hz
            * cal.issue_efficiency * kernel.compute_efficiency
        )
        compute_rate = np.minimum(sm_share_rate, warp_issue_rate)
        # DRAM bandwidth is shared by however many blocks actually run
        # concurrently (a one-block kernel gets the whole bus), and a
        # block's own pull is capped by its live warps' outstanding
        # loads.
        sharers = max(1, min(occ.concurrent_blocks, total_blocks))
        mem_rate = np.minimum(
            self.spec.global_mem_bandwidth * cal.mem_efficiency / sharers,
            live_warps * cal.warp_mem_bandwidth * config.ilp,
        )
        base = np.maximum(flops / compute_rate, bytes_ / mem_rate)

        # Sub-warp idle lanes ride along in lockstep under EITHER ETM
        # mode (a warp executes all 32 lanes regardless).
        lane_capacity = live_warps * warp
        sub_idle = (lane_capacity - active) / lane_capacity
        base *= 1.0 + cal.intra_warp_divergence_penalty * sub_idle
        if kernel.etm_mode == "classic":
            # Classic additionally keeps whole idle warps resident:
            # they share issue slots and barriers with the live ones.
            # Layered on top of the lockstep penalty, so classic can
            # never be cheaper than aggressive for the same work.
            total_warps = -(-threads_per_block // warp)
            idle_warp_frac = (total_warps - live_warps) / total_warps
            base *= 1.0 + cal.classic_idle_warp_penalty * idle_warp_frac

        # Serial chain: the arithmetic part (sqrt/divide) is slower in
        # 64-bit; the memory-round-trip part a kernel adds on top of it
        # (serial_latency_scale > 1) is DRAM latency — precision-free.
        arith = cal.serial_fp64_scale if info.uses_fp64_units else 1.0
        per_iter = cal.serial_op_latency * (arith + (kernel.serial_latency_scale - 1.0))
        out = base + serial * per_iter + cal.block_start_overhead
        return np.where(terminated, cal.etm_terminate_overhead, out)


def cost_memo_stats(devices) -> dict:
    """Summed cost-memo counters of ``devices`` plus their hit ratio."""
    hits = misses = size = 0
    for d in devices:
        hits += d.cost_memo_hits
        misses += d.cost_memo_misses
        size += len(d._cost_memo)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": size,
        "hit_ratio": hits / total if total else 0.0,
    }


def publish_cost_memo(registry, devices, prefix: str = "device_cost_memo") -> None:
    """Set ``{prefix}_{hits,misses,size,hit_ratio}`` gauges for ``devices``.

    Gauges, like :meth:`repro.core.plan.PlanCache.publish`, so
    re-publishing never double counts.
    """
    for name, value in cost_memo_stats(devices).items():
        registry.gauge(f"{prefix}_{name}", f"device cost memo {name}").set(value)
