"""Heterogeneous compute members: one backend protocol, many substrates.

The paper's central scheduling claim is that variable-size batches run
best when *different* resources take different size buckets: GPU fused
kernels for swarms of small matrices, GPU separated (blocked BLAS)
kernels for the large tail, and one-core-per-matrix CPU scheduling for
whatever hides best behind either.  This module gives every such
resource the same face — a :class:`ComputeMember` — so the placement
layer (:mod:`repro.device.hetero`) can treat "where should this bucket
run?" as a pure cost-model question.

A member owns three things:

* a **clock** (``now``/``synchronize``/``reset_clock``) — simulated
  seconds, advanced only by work the member executed;
* a **calibrated cost estimate** (:meth:`ComputeMember.estimate_cost`)
  — predicted makespan of a size bucket *without running it*.  The GPU
  member calibrates itself by probing its own simulator (a handful of
  tiny plan/execute runs, least-squares fit over ``[flops, max_n,
  sum_n, 1]``, coefficients cached per ``(spec, calibration,
  precision, approach)``); the CPU member's estimate is exact because
  its scheduler *is* the model;
* a **chunk runner** (:meth:`ComputeMember.run_chunk`) — execute one
  index bucket of a source :class:`~repro.core.batch.VBatch`, gather
  factors/infos back, and report a :class:`ChunkRun`.

Estimates and chunk runs take an op tag.  :meth:`ComputeMember.supports`
says which ops a member's model covers (the CPU runs POTRF only), and
since the GPU fits are POTRF probes, a GPU estimate for another op is
the POTRF fit rescaled by the bucket's op/potrf flop ratio.

Cost-model-driven approach selection rides on the same estimates:
:meth:`ComputeMember.choose_approach` replaces the single static
fused/separated crossover with a per-bucket argmin, which is what
unlocks multi-member scaling — a bucket of near-``max_n`` matrices is
3x cheaper under the separated planner than under the fused one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .. import flops as _flops
from ..errors import ArgumentError
from ..types import Precision, precision_info
from .calibration import Calibration, K40C_CALIBRATION
from .device import Device
from .spec import DeviceSpec, K40C

__all__ = [
    "ChunkRun",
    "ComputeMember",
    "CpuMember",
    "GpuMember",
    "MemberCapabilities",
]

#: Planner approaches a member may choose between for one bucket.
_APPROACHES = ("fused", "separated")


@dataclass(frozen=True)
class MemberCapabilities:
    """What a member is, for placement decisions and reports."""

    kind: str  # "gpu" | "cpu"
    name: str
    peak_gflops_fp64: float
    parallel_lanes: int  # SMs for a GPU, cores for a CPU
    executes_numerics: bool


@dataclass
class ChunkRun:
    """Outcome of one chunk executed on one member."""

    member: str
    kind: str
    approach: str
    count: int
    max_n: int
    flops: float
    start: float  # member clock when the chunk began
    elapsed: float  # simulated seconds the chunk took on the member
    stolen: bool = False
    infos: np.ndarray | None = None
    launch_stats: object | None = None  # LaunchStats for GPU chunks
    #: The chunk plan's output containers (``taus``, ``ipivs`` ...),
    #: chunk-local; the driver scatters them to batch positions.
    outputs: dict | None = None


class ComputeMember(abc.ABC):
    """Common backend protocol for heterogeneous placement.

    Implementations: :class:`GpuMember` (a simulated accelerator, any
    :class:`~repro.device.spec.DeviceSpec`) and :class:`CpuMember`
    (the :mod:`repro.cpu` one-core-per-matrix model).  The contract:
    clocks only move via :meth:`run_chunk`, estimates never move
    clocks, and numerics are gathered back into the *source* batch so
    results are member-placement independent at the caller.
    """

    name: str
    kind: str

    @abc.abstractmethod
    def capabilities(self) -> MemberCapabilities:
        """Static description used in placement reports."""

    def supports(self, op: str) -> bool:
        """Whether this member's numerics and cost model cover ``op``."""
        return True

    @abc.abstractmethod
    def estimate_cost(
        self, sizes, precision, approach: str = "auto", op: str = "potrf"
    ) -> float:
        """Predicted makespan (simulated seconds) of one ``op`` bucket.

        ``approach="auto"`` returns the member's best choice (the
        minimum over the approaches it supports); a member with no
        notion of approach (the CPU) ignores the argument.
        """

    @abc.abstractmethod
    def run_chunk(
        self,
        batch,
        idx: np.ndarray,
        options,
        plan_cache=None,
        approach: str | None = None,
        stolen: bool = False,
        op: str = "potrf",
    ) -> ChunkRun:
        """Run ``op`` on ``batch[idx]`` on this member and gather results."""

    @abc.abstractmethod
    def synchronize(self) -> float:
        """Drain the member; returns its simulated clock."""

    @abc.abstractmethod
    def reset_clock(self) -> None:
        """Zero the member's timing state."""

    def now(self) -> float:
        """Current simulated clock (drained)."""
        return self.synchronize()

    def choose_approach(self, sizes, precision, options, op: str = "potrf") -> str:
        """Per-bucket planner choice via the calibrated cost model.

        An explicit ``options.approach`` is always honoured; ``"auto"``
        becomes the estimate argmin — the paper's fused-vs-separated
        crossover, decided per bucket instead of per batch.  The fits
        are POTRF probes, so any other op keeps its own crossover.
        """
        if op != "potrf":
            from ..ops.registry import get_op

            return get_op(op).choose_approach(precision, int(np.max(sizes)), options)
        approach = options.approach
        if approach != "auto":
            return approach
        return min(
            _APPROACHES, key=lambda a: self.estimate_cost(sizes, precision, a)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# GPU member
# ----------------------------------------------------------------------

#: Calibrated cost coefficients, cached per (spec, calibration,
#: precision, approach).  Probing a member's own simulator is cheap but
#: not free; every member sharing a spec/calibration pair shares a fit.
_GPU_COST_CACHE: dict[tuple, np.ndarray] = {}

def _probe_batches() -> list[np.ndarray]:
    """Probe size vectors spanning the (max_n, count, mix) space.

    Singletons pin the step-count (``max_n``) term, homogeneous swarms
    at several counts pin the per-matrix term far from the singleton
    regime (large-count extrapolation is where a collinear fit goes
    negative), and graded mixes decorrelate ``sum_n`` from
    ``max_n * count``.
    """
    return [
        np.array([32]), np.array([96]), np.array([192]), np.array([320]),
        np.full(16, 48), np.full(32, 24), np.full(8, 160), np.full(96, 40),
        np.full(192, 28), np.full(256, 64), np.arange(16, 257, 16),
        np.arange(8, 129, 8), np.repeat(np.arange(32, 257, 32), 6),
        np.repeat(np.arange(16, 257, 16), 12),
    ]


def _gpu_cost_features(sizes: np.ndarray, precision) -> np.ndarray:
    """Feature vector of the member cost model (shared by fit and eval)."""
    return np.array(
        [
            _flops.batch_flops(sizes, "potrf", precision),
            float(sizes.max()),
            float(sizes.sum()),
            float(sizes.size),
            1.0,
        ]
    )


def _probe_gpu_coefficients(
    spec: DeviceSpec, calibration: Calibration, precision, approach: str
) -> np.ndarray:
    """Fit ``t ≈ [flops, max_n, sum_n, count, 1] · β`` on simulator probes.

    The probes run on a scratch device (timing plane only), so
    calibration never disturbs a live member's clock, and the fit is
    exact *for this spec and calibration* — unequal members in one
    group each get their own coefficients.
    """
    from ..core.batch import VBatch
    from ..core.interface import potrf_vbatched_max
    from ..ops.options import OpOptions

    prec = Precision(precision)
    key = (spec, calibration, prec, approach)
    cached = _GPU_COST_CACHE.get(key)
    if cached is not None:
        return cached

    options = OpOptions(approach=approach)
    rows, times = [], []
    for sizes in _probe_batches():
        dev = Device(spec=spec, calibration=calibration, execute_numerics=False)
        sizes = np.asarray(sizes, dtype=np.int64)
        batch = VBatch.allocate(dev, sizes, prec)
        result = potrf_vbatched_max(dev, batch, int(sizes.max()), options)
        rows.append(_gpu_cost_features(sizes, prec))
        times.append(result.elapsed)
    rows = np.asarray(rows)
    times = np.asarray(times)
    # Minimize *relative* error (divide each probe equation by its
    # observed time): an absolute-error fit is dominated by the big
    # probes and extrapolates tiny chunks to negative estimates.
    coef, *_ = np.linalg.lstsq(rows / times[:, None], np.ones_like(times), rcond=None)
    _GPU_COST_CACHE[key] = coef
    return coef


class GpuMember(ComputeMember):
    """A simulated accelerator (any :class:`DeviceSpec`) as a member.

    Wraps a :class:`~repro.device.device.Device`; unequal specs and
    calibrations may coexist in one group — each member's cost model
    is probed against its own simulator.
    """

    kind = "gpu"

    def __init__(
        self,
        device: Device | None = None,
        *,
        spec: DeviceSpec = K40C,
        calibration: Calibration = K40C_CALIBRATION,
        execute_numerics: bool = True,
        name: str | None = None,
    ):
        if device is None:
            device = Device(
                spec=spec,
                calibration=calibration,
                execute_numerics=execute_numerics,
                name=name,
            )
        self.device = device
        self.name = device.name if name is None else str(name)

    def capabilities(self) -> MemberCapabilities:
        info = precision_info(Precision.D)
        return MemberCapabilities(
            kind="gpu",
            name=self.name,
            peak_gflops_fp64=self.device.spec.peak_flops(info) / 1e9,
            parallel_lanes=self.device.spec.num_sms,
            executes_numerics=self.device.execute_numerics,
        )

    # -- cost model -----------------------------------------------------
    def estimate_cost(
        self, sizes, precision, approach: str = "auto", op: str = "potrf"
    ) -> float:
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            return 0.0
        prec = Precision(precision)
        if approach == "auto":
            return min(
                self.estimate_cost(sizes, prec, a, op) for a in _APPROACHES
            )
        if op != "potrf" and approach not in _APPROACHES:
            approach = "separated"  # a single-path op (the Jacobi SVD)
        if approach not in _APPROACHES:
            raise ArgumentError(5, f"unknown approach {approach!r} (use one of {_APPROACHES})")
        coef = _probe_gpu_coefficients(
            self.device.spec, self.device.calibration, prec, approach
        )
        cost = float(max(_gpu_cost_features(sizes, prec) @ coef, 1e-9))
        if op != "potrf":
            # The fit is POTRF-calibrated; both are panel-sweep
            # factorizations on the same size vector, so the op/potrf
            # flop ratio transfers it to first order.
            potrf = _flops.batch_flops(sizes, "potrf", prec)
            cost *= _flops.batch_flops(sizes, op, prec) / potrf if potrf > 0.0 else 1.0
        return cost

    # -- execution ------------------------------------------------------
    def run_chunk(
        self,
        batch,
        idx: np.ndarray,
        options,
        plan_cache=None,
        approach: str | None = None,
        stolen: bool = False,
        op: str = "potrf",
    ) -> ChunkRun:
        from ..core.driver import stats_from_execution
        from ..ops.driver import plan_op, sub_batch
        from ..ops.registry import get_op
        from .executor import PlanExecutor

        op_desc = get_op(op)
        idx = np.asarray(idx, dtype=np.int64)
        sizes = batch.sizes_host[idx]
        prec = batch.precision
        approach = approach or self.choose_approach(sizes, prec, options, op)
        dev = self.device
        chunk_batch = sub_batch(batch, idx, dev)
        chunk_max = int(sizes.max())
        plan, cache_hit = plan_op(
            dev, chunk_batch, chunk_max, op_desc, options, approach, plan_cache
        )
        start = dev.synchronize()
        try:
            exec_stats = PlanExecutor(dev).execute(plan, chunk_batch)
            elapsed = dev.synchronize() - start
            stats = stats_from_execution(plan, exec_stats, cache_hit)
            outputs = dict(plan.meta.get("outputs", {}))
            if dev.execute_numerics:
                infos = chunk_batch.download_infos()
                for local, j in enumerate(idx):
                    batch.matrix_view(int(j))[...] = chunk_batch.matrix_view(local)
            else:
                infos = np.zeros(idx.size, dtype=np.int64)
        finally:
            if plan_cache is None:
                plan.close()
            chunk_batch.free()
        return ChunkRun(
            member=self.name,
            kind="gpu",
            approach=approach,
            count=int(idx.size),
            max_n=chunk_max,
            flops=plan.meta["useful_flops"],
            start=start,
            elapsed=elapsed,
            stolen=stolen,
            infos=infos,
            launch_stats=stats,
            outputs=outputs,
        )

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Peek the host clock without draining (safe concurrently with
        a dispatch in flight; chunk boundaries synchronize anyway)."""
        return self.device.host_time

    def synchronize(self) -> float:
        return self.device.synchronize()

    def reset_clock(self) -> None:
        self.device.reset_clock()


# ----------------------------------------------------------------------
# CPU member
# ----------------------------------------------------------------------


class CpuMember(ComputeMember):
    """The :mod:`repro.cpu` one-core-per-matrix model as a member.

    Scheduling and timing are exactly the paper's §IV-F CPU baseline
    (per-matrix MKL task times under contention, dynamic work-queue
    dispatch onto cores), so :meth:`estimate_cost` *is* the executed
    model — the estimate and the chunk makespan agree to the bit.  The
    functional plane is the host-BLAS blocked Cholesky
    (:func:`repro.hostblas.potrf`), one matrix at a time, exactly what
    a core would run.
    """

    kind = "cpu"

    def __init__(
        self,
        spec=None,
        *,
        cores: int | None = None,
        mkl=None,
        scheduling: str = "dynamic",
        dispatch_overhead: float = 0.5e-6,
        contention_cores: int | None = None,
        name: str = "cpu0",
    ):
        from ..cpu import CoreScheduler, MklModel, SANDY_BRIDGE_2X8

        self.spec = spec if spec is not None else SANDY_BRIDGE_2X8
        if cores is not None and not 1 <= int(cores) <= self.spec.total_cores:
            raise ArgumentError(
                3,
                f"cores must be in [1, {self.spec.total_cores}], got {cores}",
            )
        self.cores = int(cores) if cores is not None else self.spec.total_cores
        self.mkl = mkl if mkl is not None else MklModel(self.spec)
        if scheduling not in ("static", "dynamic"):
            raise ArgumentError(
                4, f"scheduling must be 'static' or 'dynamic', got {scheduling!r}"
            )
        self.scheduling = scheduling
        self.scheduler = CoreScheduler(self.spec, dispatch_overhead=dispatch_overhead)
        #: ``None`` models contention by the cores a bucket actually
        #: occupies (min(cores, batch)); an int pins the active-core
        #: count — the §IV-F baseline charges full-machine contention
        #: regardless of batch size, and reuses this knob.
        self.contention_cores = None if contention_cores is None else int(contention_cores)
        self.name = str(name)
        self._clock = 0.0

    def capabilities(self) -> MemberCapabilities:
        info = precision_info(Precision.D)
        return MemberCapabilities(
            kind="cpu",
            name=self.name,
            peak_gflops_fp64=self.spec.peak_flops_per_core(info) * self.cores / 1e9,
            parallel_lanes=self.cores,
            executes_numerics=True,
        )

    # -- cost model -----------------------------------------------------
    def task_times(self, sizes, precision) -> np.ndarray:
        """Per-matrix single-core durations under full contention."""
        sizes = np.asarray(sizes, dtype=np.int64)
        prec = Precision(precision)
        if self.contention_cores is not None:
            active = self.contention_cores
        else:
            active = max(1, min(self.cores, sizes.size))
        return np.fromiter(
            (self.mkl.contended_potrf_time(int(n), prec, active) for n in sizes),
            dtype=np.float64,
            count=sizes.size,
        )

    def schedule(self, sizes, precision):
        """Schedule one bucket onto the cores; returns a CpuRunResult."""
        return self.scheduler.run(
            self.task_times(sizes, precision), self.scheduling, cores=self.cores
        )

    def supports(self, op: str) -> bool:
        """Only POTRF: the functional plane is :func:`repro.hostblas.potrf`."""
        return op == "potrf"

    def estimate_cost(
        self, sizes, precision, approach: str = "auto", op: str = "potrf"
    ) -> float:
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            return 0.0
        return float(self.schedule(sizes, precision).makespan)

    def choose_approach(self, sizes, precision, options, op: str = "potrf") -> str:
        """The CPU has one execution strategy; placement records it."""
        return "cpu-percore"

    def panel_time(self, jb: int, panel_flops: float, precision) -> float:
        """Single-core time for one hybrid panel (potf2 + trsm).

        The MAGMA-hybrid baseline's CPU leg: a lone panel runs at the
        sequential MKL rate for its width plus one library-call
        overhead.  Kept here so :mod:`repro.baselines.hybrid` models
        its CPU through the member protocol.
        """
        prec = Precision(precision)
        rate = self.mkl.sequential_rate(max(int(jb), 8), prec)
        return panel_flops / rate + self.mkl.constants.call_overhead

    # -- execution ------------------------------------------------------
    def run_chunk(
        self,
        batch,
        idx: np.ndarray,
        options,
        plan_cache=None,
        approach: str | None = None,
        stolen: bool = False,
        op: str = "potrf",
    ) -> ChunkRun:
        from ..hostblas import potrf as host_potrf

        idx = np.asarray(idx, dtype=np.int64)
        sizes = batch.sizes_host[idx]
        prec = batch.precision
        run = self.schedule(sizes, prec)
        start = self._clock
        self._clock += run.makespan
        infos = np.zeros(idx.size, dtype=np.int64)
        if batch.device.execute_numerics:
            for local, j in enumerate(idx):
                infos[local] = host_potrf(batch.matrix_view(int(j)), "l")
        return ChunkRun(
            member=self.name,
            kind="cpu",
            approach="cpu-percore",
            count=int(idx.size),
            max_n=int(sizes.max()),
            flops=_flops.batch_flops(sizes, "potrf", prec),
            start=start,
            elapsed=run.makespan,
            stolen=stolen,
            infos=infos,
            launch_stats=None,
        )

    # -- clock ----------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Charge host-driven CPU work (e.g. hybrid panels) to the clock."""
        self._clock += float(seconds)

    def synchronize(self) -> float:
        return self._clock

    def reset_clock(self) -> None:
        self._clock = 0.0
