"""Approach 1: the fused-kernel vbatched Cholesky planner (paper §III-D).

Four variants, matching the progressive versions of Figs 5-6:

1. ETM-classic only,
2. ETM-aggressive only,
3. ETM-classic + implicit sorting,
4. ETM-aggressive + implicit sorting.

The driver is a *pure planner*: :meth:`FusedDriver.plan` emits a
:class:`~repro.core.plan.LaunchPlan` — per step, the auxiliary
step-sizes launch (whose output stays in device memory for the compute
kernels) followed by the fused step kernel, either one launch over the
whole batch (ETM handles the finished matrices) or one per size window
(implicit sorting).  :meth:`FusedDriver.factorize` is the eager
convenience wrapper: plan, hand the DAG to the
:class:`~repro.device.executor.PlanExecutor`, close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError
from ..types import Precision, precision_info
from ..device.kernel import key_prefix
from ..kernels import grouping
from ..kernels.aux import StepSizesKernel
from ..kernels.fused_potrf import FusedPotrfStepKernel, fused_cost_bytes, fused_launch_config
from .batch import VBatch
from .plan import LaunchPlan, PlanBuilder
from .sorting import sorted_order, window_bounds

__all__ = ["FusedDriver", "FusedRunStats", "default_fused_nb", "fused_max_feasible_size"]

_WARP = 32
_MAX_BLOCK_THREADS = 1024
_SMEM_BUDGET = 48 * 1024


_NB_TEMPLATES = (32, 24, 16, 12, 8, 6, 4, 2)

# Tuned nb per (element size, max-size band): produced by sweeping the
# templates on the simulator (repro.autotune regenerates this table).
# Wider panels cut DRAM traffic and launches; narrower panels keep
# occupancy (and thus latency hiding) up — the balance shifts with n.
_NB_TABLE = {
    4: ((96, 32), (160, 24), (10**9, 16)),
    8: ((48, 24), (96, 16), (288, 12), (10**9, 8)),
    16: ((48, 12), (144, 8), (320, 6), (10**9, 4)),
}


def default_fused_nb(max_n: int, precision: Precision | str) -> int:
    """Tuned panel width for the fused kernel (the paper's template pick).

    Uses the autotuned band table, then falls back to the widest
    still-feasible template if the tabled choice exceeds the
    shared-memory budget for this ``max_n``.
    """
    if max_n <= 0:
        raise ArgumentError(1, f"max_n must be positive, got {max_n}")
    elem = precision_info(Precision(precision)).bytes_per_element
    rows = min(_MAX_BLOCK_THREADS, -(-max_n // _WARP) * _WARP)
    choice = next(nb for bound, nb in _NB_TABLE[elem] if max_n <= bound)
    for nb in (choice,) + tuple(t for t in _NB_TEMPLATES if t < choice):
        if rows * nb * elem <= _SMEM_BUDGET:
            return nb
    return 1


def fused_max_feasible_size(precision: Precision | str, nb: int | None = None) -> int:
    """Largest batch-max size the fused kernel can handle at all.

    Bounded by the 1024-thread block limit and by the narrowest panel
    template still fitting in shared memory.
    """
    elem = precision_info(Precision(precision)).bytes_per_element
    nb_min = nb if nb is not None else 2
    by_smem = _SMEM_BUDGET // (nb_min * elem)
    return min(_MAX_BLOCK_THREADS, (by_smem // _WARP) * _WARP)


@dataclass
class FusedRunStats:
    """Launch accounting for one fused-driver run."""

    steps: int = 0
    fused_launches: int = 0
    aux_launches: int = 0
    window_launches_max: int = 0


class _FusedEmitter:
    """Builds one plan's fused kernels.  The precision is resolved once
    per plan; one launch config (block bound checked) and memo-key
    prefix are shared per distinct ``max_m``."""

    def __init__(self, sizes, precision, nb: int, etm: str):
        self.sizes = sizes
        self.precision = precision
        self.nb = nb
        self.etm = etm
        self.info = precision_info(precision)
        self._shapes: dict[int, tuple] = {}

    def __call__(self, step, indices, max_m, ms, counts):
        shape = self._shapes.get(max_m)
        if shape is None:
            config = fused_launch_config(max_m, self.nb, self.info.bytes_per_element)
            prefix = key_prefix(
                config, self.precision, self.etm, FusedPotrfStepKernel.compute_efficiency,
                FusedPotrfStepKernel.serial_latency_scale,
            )
            shape = self._shapes[max_m] = (config, prefix)
        config, prefix = shape
        key = FusedPotrfStepKernel.byte_key(prefix, fused_cost_bytes(step, self.nb, ms, counts))
        return FusedPotrfStepKernel(
            self.sizes, self.precision, step, self.nb, indices, max_m, self.etm, (ms, counts),
            info=self.info, config=config, memo_key=key,
        )


def _sorted_launches(sizes, steps: int, nb: int, window: int, min_count: int) -> list[list]:
    """Every step's implicit-sorting launches, ``(indices, max_m, ms,
    counts)`` each, from one pass over the descending sizes.

    The runs of equal size in the sorted order are the same at every
    step, and a window never splits one (its matrices share a window
    id), so the steps are planned on runs: row ``s`` of ``rem`` holds
    each run's remaining rows at step ``s``, its live runs are a prefix,
    and a window's groups are a slice of that row and of the run
    lengths.  Identical to :func:`~repro.core.sorting.partition_windows`
    plus first-seen grouping per window.
    """
    order = sorted_order(sizes)
    ordered = sizes[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    cum = bounds.tolist()  # run starts, then the batch count
    values = ordered[bounds[:-1]]  # distinct sizes, descending
    lengths = bounds[1:] - bounds[:-1]
    rem = values - (np.arange(steps, dtype=np.int64) * nb)[:, None]
    descending = values.tolist()
    runs = len(descending)
    win_id = None
    # Windows of whole live prefixes recur from step to step: share
    # their index and count slices.
    prefixes: dict[int, tuple] = {}
    launches = []
    for s in range(steps):
        offset = s * nb
        while runs and descending[runs - 1] <= offset:  # the live prefix shrinks
            runs -= 1
        if runs == 0:
            launches.append([])
            continue
        row = rem[s]
        if cum[runs] <= min_count:  # one window: the whole live prefix
            prefix = prefixes.get(runs)
            if prefix is None:
                prefix = prefixes[runs] = (order[:cum[runs]], lengths[:runs])
            launches.append([(prefix[0], descending[0] - offset, row[:runs], prefix[1])])
            continue
        if win_id is None:
            win_id = (rem - 1) // window
        cuts = window_bounds(win_id[s, :runs], cum, min_count)
        launches.append([
            (order[cum[a]:cum[b]], int(row[a]), row[a:b], lengths[a:b])
            for a, b in zip(cuts, cuts[1:])
        ])
    return launches


def _unsorted_launches(sizes, steps: int, nb: int, max_n: int) -> list[list]:
    """One launch per step over the whole batch in batch order, shaped
    by ``max_n`` (finished matrices ride along as ETM-terminated
    blocks), grouped first-seen."""
    indices = np.arange(len(sizes), dtype=np.int64)
    launches = []
    for s in range(steps):
        offset = s * nb
        ms, counts = grouping.grouped_first_seen(np.maximum(0, sizes - offset))
        launches.append([(indices, max_n - offset, ms, counts)])
    return launches


class FusedDriver:
    """Runs the fused-kernel approach over a :class:`VBatch`."""

    def __init__(
        self,
        device,
        etm: str = "aggressive",
        sorting: bool = True,
        nb: int | None = None,
        window_width: int | None = None,
    ):
        if etm not in ("classic", "aggressive"):
            raise ArgumentError(2, f"etm must be 'classic' or 'aggressive', got {etm!r}")
        self.device = device
        self.etm = etm
        self.sorting = sorting
        self.nb = nb
        self.window_width = window_width

    def plan(self, batch: VBatch, max_n: int) -> LaunchPlan:
        """Emit the launch DAG for Algorithm 1 (no device time passes).

        Per step: the auxiliary step-sizes launch, whose output stays in
        device memory for the compute kernels (the host never reads it
        back; it derives the launch shape from the interface-provided
        ``max_n``, paper §III-F), then the fused launches.  Every step's
        launch shapes come from one pass over the sorted sizes
        (:func:`_sorted_launches`); the loop below only emits them.
        """
        if max_n <= 0:
            raise ArgumentError(3, f"max_n must be positive, got {max_n}")
        precision = batch.precision
        nb = self.nb or default_fused_nb(max_n, precision)
        window = self.window_width or max(nb, _WARP)
        steps = -(-max_n // nb)
        sizes = batch.sizes_host
        k = len(sizes)
        pb = PlanBuilder(self.device)
        try:
            # Device workspaces for the per-step auxiliary kernel; the
            # plan owns them (cached re-executions reuse them) and the
            # pool gets them back when the plan closes.
            remaining_dev = pb.workspace((k,), np.int64)
            panel_dev = pb.workspace((k,), np.int64)
            stats_dev = pb.workspace((2,), np.int64)
            if self.sorting:
                # Merge small windows up to roughly the device's block
                # capacity so no sub-launch wastes whole waves.
                launches = _sorted_launches(sizes, steps, nb, window, min_count=256)
            else:
                launches = _unsorted_launches(sizes, steps, nb, max_n)
            emit = _FusedEmitter(sizes, precision, nb, self.etm)
            aux_key = None
            for s, step_launches in enumerate(launches):
                aux = StepSizesKernel(
                    sizes, s * nb, nb, remaining_dev, panel_dev, stats_dev, memo_key=aux_key
                )
                aux_key = aux.memo_key()  # one size vector: every step costs the same
                pb.aux(aux)
                for indices, max_m, ms, counts in step_launches:
                    pb.launch(emit(s, indices, max_m, ms, counts), tag="fused")
        except BaseException:
            pb.abandon()
            raise
        stats = FusedRunStats(
            steps=steps,
            fused_launches=sum(map(len, launches)),
            aux_launches=steps,
            window_launches_max=max(map(len, launches)) if self.sorting else 0,
        )
        return pb.build(run_stats=stats, meta={"planner": "fused", "nb": nb, "max_n": max_n})

    def factorize(self, batch: VBatch, max_n: int) -> FusedRunStats:
        """Advance every matrix to full factorization (Algorithm 1)."""
        from ..device.executor import PlanExecutor

        plan = self.plan(batch, max_n)
        try:
            PlanExecutor(self.device).execute(plan, batch)
        finally:
            plan.close()
        return plan.run_stats
