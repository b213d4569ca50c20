"""Generic vbatched-operation driver: plan, execute, shard, place.

:func:`run_op_vbatched` is the registry-dispatched twin of
:func:`repro.core.driver.run_potrf_vbatched`: resolve the op tag, pick
an approach (per-op crossover), plan (or re-serve from a
:class:`~repro.core.plan.PlanCache` — the op tag is a structural key
component), execute, and collect a uniform :class:`OpResult`.  POTRF
itself delegates to the original driver so its tuned defaults, hetero
placement and work-stealing behaviour stay byte-identical.

Scaling hooks mirror the POTRF driver:

* a :class:`~repro.device.topology.DeviceGroup` shards the batch with
  the *op's own* flop model weighing the partition and runs per-shard
  plans concurrently (:func:`run_op_sharded`);
* a :class:`~repro.device.hetero.HeteroGroup` places size strata on its
  GPU members by earliest predicted finish
  (:func:`run_op_hetero`) — the members' potrf-calibrated cost models
  are rescaled by the op/potrf flop ratio, and the CPU member (a
  potrf-only core model) sits placement out.

Per-shard planner outputs (``taus``, ``ipivs``, singular values ...)
are scattered back into batch-global containers, so results are
placement-independent at the caller exactly like the factors
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import flops as _flops
from ..core.batch import VBatch
from ..core.driver import LaunchStats, stats_from_execution
from ..core.optimizer import optimize_plan, with_level
from ..core.plan import PlanCache
from ..errors import ArgumentError, BatchNumericalError
from ..kernels.aux import compute_max_size
from ..observability.trace import Track, current_tracer
from .options import OpOptions
from .registry import Operation, get_op

__all__ = ["OpResult", "plan_op", "run_op_vbatched"]


@dataclass
class OpResult:
    """Outcome of one generic vbatched run.

    ``outputs`` maps the op's output keys (``taus``, ``ipivs``,
    ``singular_values``, ``vt``, ``sweeps_done``) to batch-global
    containers; ``meta`` is the executed plan's metadata (single-device
    runs) or a small summary (sharded/hetero runs).  With a
    ``plan_cache`` the single-device output arrays belong to the cached
    plan — a later re-serve of the same plan refreshes them in place.
    """

    op: str
    approach: str
    elapsed: float
    total_flops: float
    infos: np.ndarray
    launch_stats: LaunchStats = field(default_factory=LaunchStats)
    max_n: int = 0
    outputs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    placement: list | None = None
    member_stats: list | None = None

    @property
    def gflops(self) -> float:
        return _flops.gflops(self.total_flops, self.elapsed)

    @property
    def failed_count(self) -> int:
        return int(np.count_nonzero(self.infos))


def plan_op(
    device,
    batch: VBatch,
    max_n: int,
    op_desc: Operation,
    options: OpOptions,
    approach: str,
    plan_cache: PlanCache | None = None,
):
    """Produce (or fetch from cache) the plan for one op on one batch."""
    built = []  # set by this call's own build: other threads may build too

    def build():
        built.append(True)
        plan = op_desc.planner(device, batch, max_n, options, approach)
        return optimize_plan(plan, options.optimize)

    if plan_cache is None:
        return build(), None
    key = plan_cache.key_for(
        device, batch, max_n, approach, options,
        optimize=options.optimize, op=op_desc.name,
    )
    plan = plan_cache.get_or_build(key, batch, build)
    return plan, not built


def _check_precision(op_desc: Operation, batch: VBatch) -> None:
    if op_desc.real_only and batch.precision.value not in ("s", "d"):
        raise ArgumentError(
            2,
            f"op {op_desc.name!r} supports real precisions only, "
            f"got {batch.precision.value}",
        )


def _raise_failures(op_desc: Operation, batch: VBatch, infos: np.ndarray) -> None:
    failing = {int(i): int(v) for i, v in enumerate(infos) if v != 0}
    if failing:
        raise BatchNumericalError(
            failing, f"{op_desc.name}_vbatched[{batch.precision.value}]"
        )


def _scatter_outputs(acc: dict, shard_outputs: dict, idx: np.ndarray, k: int, max_n: int):
    """Fold one shard plan's output containers into batch-global ones.

    2-D arrays scatter rows (left-aligned — shard planners size columns
    by the shard's own ``max_n``), 1-D arrays scatter elements, dicts
    (per-matrix ragged results like ``vt``) remap local keys to source
    indices.
    """
    for name, val in shard_outputs.items():
        if isinstance(val, dict):
            dest = acc.setdefault(name, {})
            for local, item in val.items():
                dest[int(idx[int(local)])] = item
        elif isinstance(val, np.ndarray) and val.ndim == 2:
            dest = acc.get(name)
            if dest is None:
                dest = acc[name] = np.zeros((k, max_n), dtype=val.dtype)
            dest[idx, : val.shape[1]] = val
        elif isinstance(val, np.ndarray) and val.ndim == 1:
            dest = acc.get(name)
            if dest is None:
                dest = acc[name] = np.zeros(k, dtype=val.dtype)
            dest[idx] = val


def _wrap_potrf(result) -> OpResult:
    return OpResult(
        op="potrf",
        approach=result.approach,
        elapsed=result.elapsed,
        total_flops=result.total_flops,
        infos=result.infos,
        launch_stats=result.launch_stats,
        max_n=result.max_n,
        meta={"op": "potrf"},
        placement=result.placement,
        member_stats=result.member_stats,
    )


def run_op_vbatched(
    device,
    batch: VBatch,
    max_n: int | None,
    op: str,
    options: OpOptions | None = None,
    *,
    devices=None,
    plan_cache: PlanCache | None = None,
    optimize: str | None = None,
) -> OpResult:
    """Execute one vbatched operation and collect the result record.

    ``op`` is a registered plannable tag (see
    :mod:`repro.ops.registry`); serving aliases (``posv``/``gesv``)
    factor via their base op at the serving layer, not here.  ``max_n``
    defaults to a device-side reduction (the LAPACK-like interface
    path).  ``devices``/``plan_cache``/``optimize`` match the POTRF
    driver.
    """
    op_desc = get_op(op)
    if op_desc.planner is None:
        raise ArgumentError(
            1,
            f"op {op_desc.name!r} is a serving alias (factor via "
            f"{op_desc.base!r}); run_op_vbatched needs a plannable op",
        )
    if options is None:
        options = OpOptions()
    if optimize is not None and optimize != options.optimize:
        options = with_level(options, optimize)
    if max_n is None:
        max_n = compute_max_size(device, batch)

    if op_desc.name == "potrf":
        # The original driver keeps its tuned defaults (ETM, sorting,
        # NB=128 panels, CPU members, work-stealing); only the knobs
        # OpOptions actually carries are forwarded.
        from ..core.driver import PotrfOptions, run_potrf_vbatched

        potrf_options = PotrfOptions(
            approach=options.approach,
            crossover_size=options.crossover_size,
            on_error=options.on_error,
            optimize=options.optimize,
        )
        return _wrap_potrf(
            run_potrf_vbatched(
                device, batch, max_n, potrf_options,
                devices=devices, plan_cache=plan_cache,
            )
        )

    from ..device.executor import PlanExecutor

    _check_precision(op_desc, batch)
    if max_n < batch.max_size_host:
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix in batch")
    approach = op_desc.choose_approach(batch.precision, max_n, options)

    if devices is not None:
        from ..device.hetero import HeteroGroup
        from ..device.topology import DeviceGroup

        if isinstance(devices, HeteroGroup):
            result = run_op_hetero(devices, batch, max_n, op_desc, options, plan_cache)
            if options.on_error == "raise":
                _raise_failures(op_desc, batch, result.infos)
            return result
        group = devices if isinstance(devices, DeviceGroup) else DeviceGroup(devices)
        if len(group) > 1:
            result = run_op_sharded(
                group, batch, max_n, op_desc, options, approach, plan_cache
            )
            if options.on_error == "raise":
                _raise_failures(op_desc, batch, result.infos)
            return result
        device = group.devices[0]

    plan, cache_hit = plan_op(device, batch, max_n, op_desc, options, approach, plan_cache)
    try:
        t0 = device.synchronize()
        exec_stats = PlanExecutor(device).execute(plan)
        elapsed = device.synchronize() - t0
        launch_stats = stats_from_execution(plan, exec_stats, cache_hit)
        outputs = dict(plan.meta.get("outputs", {}))
        meta = dict(plan.meta)
    finally:
        if plan_cache is None:
            plan.close()

    if device.execute_numerics:
        infos = batch.download_infos()
    else:
        infos = np.zeros(batch.batch_count, dtype=np.int64)
    result = OpResult(
        op=op_desc.name,
        approach=approach,
        elapsed=elapsed,
        total_flops=op_desc.batch_flops(batch.sizes_host, batch.precision),
        infos=infos,
        launch_stats=launch_stats,
        max_n=max_n,
        outputs=outputs,
        meta=meta,
    )
    if options.on_error == "raise":
        _raise_failures(op_desc, batch, infos)
    return result


def run_op_sharded(
    group,
    batch: VBatch,
    max_n: int,
    op_desc: Operation,
    options: OpOptions,
    approach: str,
    plan_cache: PlanCache | None = None,
) -> OpResult:
    """Run one op across a device group and merge the results.

    Mirrors :func:`repro.device.topology.run_potrf_sharded` — the
    source batch stays authoritative, ``elapsed`` is the slowest shard,
    plan/batch ownership follows the same cache-aware triage — but the
    partition is weighed by the op's own flop model and planner outputs
    are scattered back into batch-global containers.
    """
    from ..device.executor import execute_concurrently

    tracer = current_tracer()
    sizes = batch.sizes_host
    k = batch.batch_count
    shards = []
    with tracer.span(
        "shard-plan", Track("topology", "sharder"), cat="shard",
        args={"devices": len(group), "batch": int(k), "op": op_desc.name},
    ) as shard_args:
        parts = group.partition_indices(sizes, batch.precision, routine=op_desc.name)
        for dev, idx in zip(group.devices, parts):
            if idx.size == 0:
                continue
            if batch.device.execute_numerics and dev.execute_numerics:
                shard_batch = VBatch.from_host(
                    dev, [np.ascontiguousarray(batch.matrix_view(int(j))) for j in idx]
                )
            else:
                shard_batch = VBatch.allocate(
                    dev, sizes[idx], batch.precision,
                    ldas=np.maximum(batch.ldas_host[idx], 1),
                )
            shard_max = int(sizes[idx].max())
            plan, cache_hit = plan_op(
                dev, shard_batch, shard_max, op_desc, options, approach, plan_cache
            )
            shards.append((dev, idx, shard_batch, plan, cache_hit))
        if tracer:
            shard_args["shard_sizes"] = [int(idx.size) for _, idx, _, _, _ in shards]

    for dev, _, _, _, _ in shards:
        dev.synchronize()
    starts = {id(dev): dev.host_time for dev, _, _, _, _ in shards}
    try:
        exec_stats = execute_concurrently([plan for _, _, _, plan, _ in shards])
    except BaseException as exc:
        partial = getattr(exc, "partial", None)
        if partial:
            salvaged = LaunchStats(devices_used=0)
            for (dev, _, _, plan, cache_hit), es in zip(shards, partial):
                if es is None:
                    continue
                salvaged.merge(stats_from_execution(plan, es, cache_hit))
                salvaged.devices_used += 1
            exc.partial_launch_stats = salvaged
        for _, _, shard_batch, plan, _ in shards:
            if plan_cache is None:
                plan.close()
                shard_batch.free()
            elif plan.batch_ref is not shard_batch:
                shard_batch.free()
            else:
                plan.owns_batch = True
        raise

    elapsed = 0.0
    infos = np.zeros(k, dtype=np.int64)
    outputs: dict = {}
    merged = LaunchStats(devices_used=len(shards))
    with tracer.span("shard-gather", Track("topology", "sharder"), cat="shard"):
        for (dev, idx, shard_batch, plan, cache_hit), es in zip(shards, exec_stats):
            elapsed = max(elapsed, dev.synchronize() - starts[id(dev)])
            merged.merge(stats_from_execution(plan, es, cache_hit))
            _scatter_outputs(outputs, plan.meta.get("outputs", {}), idx, k, max_n)
            if dev.execute_numerics:
                infos[idx] = shard_batch.download_infos()
                for local, j in enumerate(idx):
                    batch.matrix_view(int(j))[...] = shard_batch.matrix_view(local)
            if plan_cache is None:
                plan.close()
                shard_batch.free()
            elif plan.batch_ref is not shard_batch:
                shard_batch.free()
            else:
                plan.owns_batch = True

    return OpResult(
        op=op_desc.name,
        approach=approach,
        elapsed=elapsed,
        total_flops=op_desc.batch_flops(sizes, batch.precision),
        infos=infos,
        launch_stats=merged,
        max_n=max_n,
        outputs=outputs,
        meta={"op": op_desc.name, "planner": approach, "shards": len(shards)},
    )


def _member_cost(member, op_desc: Operation, chunk_sizes, precision, approach: str) -> float:
    """A GPU member's predicted seconds for one chunk of this op.

    The member cost models are potrf-calibrated; the op estimate scales
    the potrf prediction by the op/potrf flop ratio of the chunk (both
    are panel-sweep factorizations on the same size vector, so the
    ratio transfers the fit to first order).
    """
    cost_approach = approach if approach in ("fused", "separated") else "separated"
    base = member.estimate_cost(chunk_sizes, precision, cost_approach)
    potrf = _flops.batch_flops(chunk_sizes, "potrf", precision)
    ours = op_desc.batch_flops(chunk_sizes, precision)
    return base * (ours / potrf if potrf > 0.0 else 1.0)


def run_op_hetero(
    group,
    batch: VBatch,
    max_n: int,
    op_desc: Operation,
    options: OpOptions,
    plan_cache: PlanCache | None = None,
) -> OpResult:
    """Run one op across a heterogeneous group's GPU members.

    Size strata place by greedy earliest predicted finish, exactly like
    the POTRF hetero path, with two deliberate restrictions: CPU
    members sit out (their core model only knows POTRF) and the
    placement is static — no work-stealing loop, since the flop-ratio
    cost rescaling is too coarse to arbitrate steals profitably.
    """
    from ..device.executor import MemberStats, PlanExecutor
    from ..device.member import ChunkRun

    gpus = group.gpu_members
    if not gpus:
        raise ArgumentError(
            6, f"op {op_desc.name!r} needs at least one GPU member in the group"
        )
    tracer = current_tracer()
    sizes = batch.sizes_host
    precision = batch.precision
    k = batch.batch_count
    base = {m.name: m.synchronize() for m in gpus}
    members = {m.name: m for m in gpus}

    with tracer.span(
        "hetero-place",
        Track("hetero", "placer"),
        cat="hetero",
        args={"members": list(members), "batch": int(k),
              "placement": group.placement, "op": op_desc.name},
    ) as place_args:
        queues: dict[str, list] = {m.name: [] for m in gpus}
        projected = {m.name: 0.0 for m in gpus}
        placement = []
        for ordinal, idx in enumerate(group.chunk_indices(sizes, precision)):
            chunk_sizes = sizes[idx]
            chunk_max = int(chunk_sizes.max())
            approach = op_desc.choose_approach(precision, chunk_max, options)
            bids = {
                m.name: _member_cost(m, op_desc, chunk_sizes, precision, approach)
                for m in gpus
            }
            winner = min(gpus, key=lambda m: (projected[m.name] + bids[m.name], m.name))
            projected[winner.name] += bids[winner.name]
            queues[winner.name].append((ordinal, idx, approach))
            placement.append(
                {
                    "chunk": ordinal,
                    "member": winner.name,
                    "kind": "gpu",
                    "approach": approach,
                    "count": int(idx.size),
                    "max_n": chunk_max,
                    "est_s": float(bids[winner.name]),
                    "alternatives_s": {n: float(v) for n, v in bids.items()},
                }
            )
        if tracer:
            place_args["chunks"] = len(placement)
            place_args["decisions"] = [
                {key: d[key] for key in ("chunk", "member", "approach", "count", "max_n", "est_s")}
                for d in placement
            ]

    merged = LaunchStats(devices_used=0)
    stats = {m.name: MemberStats(name=m.name, kind="gpu") for m in gpus}
    infos = np.zeros(k, dtype=np.int64)
    outputs: dict = {}
    try:
        for name, queue in queues.items():
            m = members[name]
            dev = m.device
            for ordinal, idx, approach in queue:
                chunk_sizes = sizes[idx]
                chunk_max = int(chunk_sizes.max())
                with tracer.span(
                    "hetero-chunk",
                    Track("hetero", name),
                    cat="hetero",
                    args={"chunk": ordinal, "count": int(idx.size),
                          "max_n": chunk_max, "approach": approach,
                          "op": op_desc.name, "stolen": False},
                ):
                    if batch.device.execute_numerics and dev.execute_numerics:
                        chunk_batch = VBatch.from_host(
                            dev,
                            [np.ascontiguousarray(batch.matrix_view(int(j))) for j in idx],
                        )
                    else:
                        chunk_batch = VBatch.allocate(
                            dev, chunk_sizes, precision,
                            ldas=np.maximum(batch.ldas_host[idx], 1),
                        )
                    plan, cache_hit = plan_op(
                        dev, chunk_batch, chunk_max, op_desc, options, approach, plan_cache
                    )
                    start = dev.synchronize()
                    try:
                        exec_stats = PlanExecutor(dev).execute(plan)
                        chunk_elapsed = dev.synchronize() - start
                        chunk_stats = stats_from_execution(plan, exec_stats, cache_hit)
                        _scatter_outputs(
                            outputs, plan.meta.get("outputs", {}), idx, k, max_n
                        )
                        if dev.execute_numerics:
                            infos[idx] = chunk_batch.download_infos()
                            for local, j in enumerate(idx):
                                batch.matrix_view(int(j))[...] = chunk_batch.matrix_view(local)
                    finally:
                        if plan_cache is None:
                            plan.close()
                            chunk_batch.free()
                        elif plan.batch_ref is not chunk_batch:
                            chunk_batch.free()
                        else:
                            plan.owns_batch = True
                stats[name].record(
                    ChunkRun(
                        member=name,
                        kind="gpu",
                        approach=approach,
                        count=int(idx.size),
                        max_n=chunk_max,
                        flops=op_desc.batch_flops(chunk_sizes, precision),
                        start=start,
                        elapsed=chunk_elapsed,
                        launch_stats=chunk_stats,
                    )
                )
                merged.merge(chunk_stats)
                merged.chunks += 1
    except BaseException as exc:
        merged.devices_used = sum(1 for s in stats.values() if s.chunks)
        exc.partial_launch_stats = merged
        raise

    elapsed = 0.0
    for name, m in members.items():
        busy = m.synchronize() - base[name]
        stats[name].busy_s = busy
        if stats[name].chunks:
            elapsed = max(elapsed, busy)
    merged.devices_used = sum(1 for s in stats.values() if s.chunks)
    approaches = sorted({d["approach"] for d in placement})
    return OpResult(
        op=op_desc.name,
        approach="hetero[" + "+".join(approaches) + "]",
        elapsed=elapsed,
        total_flops=op_desc.batch_flops(sizes, precision),
        infos=infos,
        launch_stats=merged,
        max_n=max_n,
        outputs=outputs,
        meta={"op": op_desc.name, "planner": "hetero", "chunks": len(placement)},
        placement=placement,
        member_stats=[stats[m.name] for m in gpus],
    )
