"""The vbatched driver of every op: plan, execute, shard, place.

:func:`run_op_vbatched` is the one driver behind every registered op,
POTRF included: resolve the op tag, pick an approach (per-op
crossover), plan (or re-serve from a
:class:`~repro.core.plan.PlanCache` — the op tag is a structural key
component), execute, and collect a uniform :class:`OpResult`.  Every
public entry point (:mod:`repro.core.interface`, the QR/LU/SVD
wrappers, posv/gesv) is a thin call into it.  One
:class:`~repro.ops.options.OpOptions` type carries every op's knobs;
fields left ``None`` take the op's tuned defaults when its plan is
built.

Placement is a parameter, not a separate driver:

* a :class:`~repro.device.topology.DeviceGroup` shards the batch's
  simulated time with the *op's own* flop model weighing the partition
  (per-shard plans on per-device clocks, over payload-free shard
  batches) and runs the numerics once over the whole batch
  (:func:`run_op_sharded`);
* a :class:`~repro.device.hetero.HeteroGroup` places size strata on
  its members by earliest predicted finish and runs them in one
  virtual-time loop (:func:`run_op_hetero`).  What each member's model
  knows sets the rules: the GPU cost fits are POTRF probes, so only
  POTRF picks its approach by cost-model argmin and work-steals
  (other ops take their crossover and a flop-ratio-rescaled bid), and
  the CPU member, whose numerics are host POTRF, bids on POTRF only.

Plans are shape-only (:mod:`repro.core.plan`): each execution binds
the batch it runs on, so a ``plan_cache`` re-serves a plan to every
batch of its shape, the sharded functional pass included.

Planner outputs (``taus``, ``ipivs``, singular values ...) come back
in batch-global containers: a sharded numerics-on run's functional plan
covers the whole batch, and hetero chunk (or timing-only shard) outputs
are scattered back, so results are placement-independent at the caller
exactly like the factors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    runs) or a small summary (sharded/hetero runs).  A posv/gesv
    result (``op`` names the solve) covers factor + solve in
    ``elapsed`` and ``total_flops`` and splits the time in
    ``meta["factor_elapsed"]``/``meta["solve_elapsed"]``.  With a
    ``plan_cache`` the output arrays of a single-device or sharded run
    belong to the cached plan: the next run of any batch of the same
    shape refills them in place, so a caller that keeps them copies
    them first (as ``BatchServer`` does per response).
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
        # Defaults resolve here, after the cache lookup: the key holds
        # the caller's options object, so a warm lookup matches it by
        # identity instead of comparing fields.
        plan = op_desc.planner(
            device, batch, max_n, op_desc.resolve_options(options), approach
        )
        # Every plan carries its operation tag; the executor stamps it
        # on kernel spans so mixed-op traces attribute time per op.
        plan.meta.setdefault("op", op_desc.name)
        # Counted once per plan: a cached plan's warm re-run would
        # otherwise spend more host time here than on its launches.
        plan.meta["useful_flops"] = op_desc.batch_flops(batch.sizes_host, batch.precision)
        return optimize_plan(plan, options.optimize)

    if plan_cache is None:
        return build(), None
    key = plan_cache.key_for(
        device, batch, max_n, approach, options,
        optimize=options.optimize, op=op_desc.name,
    )
    plan = plan_cache.get_or_build(key, device, build)
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


def _scatter_outputs(acc: dict, part_outputs: dict, idx: np.ndarray, k: int, max_n: int):
    """Fold one shard plan's or hetero chunk's output containers into
    batch-global ones.

    2-D arrays scatter rows (left-aligned — part planners size columns
    by the part's own ``max_n``), 1-D arrays scatter elements, dicts
    (per-matrix ragged results like ``vt``) remap local keys to source
    indices.
    """
    for name, val in part_outputs.items():
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
    path).  ``devices`` (a :class:`~repro.device.topology.DeviceGroup`,
    a :class:`~repro.device.hetero.HeteroGroup` or a sequence of
    devices) shards or places the batch; ``plan_cache`` re-serves
    previously built plans for batches with identical size vectors;
    ``optimize`` overrides ``options.optimize`` (a plan-optimizer
    level, see :mod:`repro.core.optimizer`).
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

    _check_precision(op_desc, batch)
    if max_n < batch.max_size_host:
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix in batch")
    approach = op_desc.choose_approach(batch.precision, max_n, options)

    if devices is None:
        result = _run_single(device, batch, max_n, op_desc, options, approach, plan_cache)
    else:
        from ..device.hetero import HeteroGroup
        from ..device.topology import DeviceGroup

        if isinstance(devices, HeteroGroup):
            result = run_op_hetero(devices, batch, max_n, op_desc, options, plan_cache)
        else:
            group = devices if isinstance(devices, DeviceGroup) else DeviceGroup(devices)
            if len(group) > 1:
                result = run_op_sharded(
                    group, batch, max_n, op_desc, options, approach, plan_cache
                )
            else:
                result = _run_single(
                    group.devices[0], batch, max_n, op_desc, options, approach, plan_cache
                )
    if options.on_error == "raise":
        _raise_failures(op_desc, batch, result.infos)
    return result


def _run_single(device, batch, max_n, op_desc, options, approach, plan_cache) -> OpResult:
    """Plan (or re-serve) and execute ``batch`` on one device."""
    from ..device.executor import PlanExecutor

    plan, cache_hit = plan_op(device, batch, max_n, op_desc, options, approach, plan_cache)
    try:
        t0 = device.synchronize()
        exec_stats = PlanExecutor(device).execute(plan, batch)
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
    return OpResult(
        op=op_desc.name,
        approach=approach,
        elapsed=elapsed,
        total_flops=meta["useful_flops"],
        infos=infos,
        launch_stats=launch_stats,
        max_n=max_n,
        outputs=outputs,
        meta=meta,
    )


def sub_batch(batch: VBatch, idx: np.ndarray, dev, payload: bool = True) -> VBatch:
    """``batch[idx]`` on ``dev`` for one hetero chunk or shard.

    When both sides execute numerics, each matrix pays its host-to-device
    copy; the values come along only with ``payload`` (a hetero chunk,
    whose member runs the numerics), not for a shard, whose launches
    leave the numerics to one pass over the source batch: a shard is
    shape-only.  A timing-only side just needs the sizes and leading
    dimensions.
    """
    sizes = batch.sizes_host[idx]
    if not (batch.device.execute_numerics and dev.execute_numerics):
        return VBatch.allocate(dev, sizes, batch.precision, ldas=batch.ldas_host[idx])
    if payload:
        return VBatch.from_host(
            dev, [np.ascontiguousarray(batch.matrix_view(int(j))) for j in idx]
        )
    return VBatch.shape_only(dev, sizes, batch.precision)


def _release_shards(shards, plan_cache: PlanCache | None) -> None:
    """Free every shard's batch and close its plan unless a cache owns it."""
    for _, _, shard_batch, plan, _ in shards:
        if plan_cache is None:
            plan.close()
        shard_batch.free()


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

    Each shard is a payload-free batch on its device (charged the
    uploads a copy would cost), and its plan commits its launches with
    numerics off, shard after shard on the calling thread; ``elapsed``
    is the slowest shard — the multi-GPU makespan — while flops cover
    the whole batch, so ``result.gflops`` reports the group's aggregate
    rate.  Then one functional pass over the source batch computes the
    factors, infos and outputs: the single-device answer, batch-global
    by construction.
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
        try:
            for dev, idx in zip(group.devices, parts):
                if idx.size == 0:
                    continue
                shard_batch = sub_batch(batch, idx, dev, payload=False)
                try:
                    plan, cache_hit = plan_op(
                        dev, shard_batch, int(sizes[idx].max()), op_desc, options, approach,
                        plan_cache,
                    )
                except BaseException:
                    shard_batch.free()
                    raise
                shards.append((dev, idx, shard_batch, plan, cache_hit))
        except BaseException:
            # A shard that does not fit must not leak the shards before it.
            _release_shards(shards, plan_cache)
            raise
        if tracer:
            shard_args["shard_sizes"] = [int(idx.size) for _, idx, _, _, _ in shards]

    for dev, _, _, _, _ in shards:
        dev.synchronize()
    starts = {id(dev): dev.host_time for dev, _, _, _, _ in shards}
    try:
        exec_stats = execute_concurrently(
            [plan for _, _, _, plan, _ in shards], run_numerics=False
        )
    except BaseException as exc:
        partial = getattr(exc, "partial", None)
        if partial:
            # Leave the finished shards' counters on the error: a
            # retrying caller (the serving fleet) accounts attempt-1
            # work once, then merges the retry under the same key.
            salvaged = LaunchStats(devices_used=0)
            for (_, _, _, plan, cache_hit), es in zip(shards, partial):
                if es is None:
                    continue
                salvaged.merge(stats_from_execution(plan, es, cache_hit))
                salvaged.devices_used += 1
            exc.partial_launch_stats = salvaged
        # A failing shard must not leak every shard's plan and memory.
        _release_shards(shards, plan_cache)
        raise

    numerics = batch.device.execute_numerics and all(
        dev.execute_numerics for dev, _, _, _, _ in shards
    )
    elapsed = 0.0
    infos = np.zeros(k, dtype=np.int64)
    outputs: dict = {}
    merged = LaunchStats(devices_used=len(shards))
    with tracer.span("shard-gather", Track("topology", "sharder"), cat="shard"):
        for (dev, idx, shard_batch, plan, cache_hit), es in zip(shards, exec_stats):
            elapsed = max(elapsed, dev.synchronize() - starts[id(dev)])
            merged.merge(stats_from_execution(plan, es, cache_hit))
            if dev.execute_numerics:
                shard_batch.download_infos()  # charged; the values come from the pass
            if not numerics:  # unfilled containers, for the batch-global shapes
                _scatter_outputs(outputs, plan.meta.get("outputs", {}), idx, k, max_n)
            if plan_cache is None:
                plan.close()
            shard_batch.free()

    if numerics:
        with tracer.span("shard-numerics", Track("topology", "sharder"), cat="shard"):
            outputs, infos = _run_numerics(
                batch, max_n, op_desc, options, approach, plan_cache
            )

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


def _run_numerics(batch, max_n, op_desc, options, approach,
                  plan_cache) -> tuple[dict, np.ndarray]:
    """Run the numerics of ``batch``'s plan in node order, with no
    launch; returns its outputs and the infos.  Unoptimized: the
    optimizer only reshapes the timing plane, and its cost probes would
    touch the device's cost memo."""
    from ..core.plan import KernelLaunch

    plan, _ = plan_op(
        batch.device, batch, max_n, op_desc, with_level(options, "none"), approach, plan_cache
    )
    try:
        operands = plan.operands(batch)
        for node in plan.nodes:
            if isinstance(node, KernelLaunch):
                node.kernel.run_numerics(operands)
        outputs = dict(plan.meta.get("outputs", {}))
    finally:
        if plan_cache is None:
            plan.close()
    return outputs, batch.infos_dev.data.copy()


def run_op_hetero(
    group,
    batch: VBatch,
    max_n: int,
    op_desc: Operation,
    options,
    plan_cache: PlanCache | None = None,
) -> OpResult:
    """Run one op across a heterogeneous group.

    Deterministic virtual-time loop: the member with the earliest clock
    runs (or steals) the next chunk; chunks execute one at a time per
    member with a synchronize at each boundary, so member clocks are
    real simulated finish times, not estimates.  Each member runs its
    chunk's numerics and the results gather back into the source batch;
    ``elapsed`` is the slowest member's busy span (the group makespan).

    Only members whose model covers the op take part (the CPU member
    runs POTRF only), and only POTRF steals: the GPU cost fits are
    POTRF probes, too coarse for other ops to arbitrate a steal.
    """
    from ..device.executor import MemberStats

    op = op_desc.name
    eligible = [m for m in group.members if m.supports(op)]
    if not eligible:
        raise ArgumentError(6, f"op {op!r} needs at least one GPU member in the group")
    tracer = current_tracer()
    sizes = batch.sizes_host
    precision = batch.precision
    k = batch.batch_count
    members = {m.name: m for m in eligible}
    base = {m.name: m.synchronize() for m in eligible}

    with tracer.span(
        "hetero-place",
        Track("hetero", "placer"),
        cat="hetero",
        args={"members": list(members), "batch": int(k),
              "placement": group.placement, "op": op},
    ) as place_args:
        queues = group.assign(sizes, precision, options, op)
        placement = [
            {
                "chunk": c.ordinal,
                "member": c.member,
                "kind": members[c.member].kind,
                "approach": c.approach,
                "count": int(c.idx.size),
                "max_n": int(sizes[c.idx].max()),
                "est_s": float(c.est),
                "alternatives_s": {n: float(v) for n, v in c.alternatives.items()},
            }
            for q in queues.values()
            for c in q
        ]
        placement.sort(key=lambda d: d["chunk"])
        if tracer:
            place_args["chunks"] = len(placement)
            place_args["decisions"] = [
                {key: d[key] for key in ("chunk", "member", "approach", "count", "max_n", "est_s")}
                for d in placement
            ]

    def rel(name: str) -> float:
        return members[name].now() - base[name]

    def backlog(name: str) -> float:
        return sum(c.est for c in queues[name])

    merged = LaunchStats(devices_used=0)
    stats = {m.name: MemberStats(name=m.name, kind=m.kind) for m in eligible}
    infos = np.zeros(k, dtype=np.int64)
    outputs: dict = {}
    steal = group.steal and op == "potrf"
    active = set(members)
    try:
        while active:
            name = min(active, key=lambda n: (rel(n), n))
            m = members[name]
            stolen = False
            if queues[name]:
                chunk = queues[name].pop(0)
            elif steal:
                victims = [v for v in members if v != name and queues[v]]
                if not victims:
                    active.discard(name)
                    continue
                victim = max(victims, key=lambda v: (backlog(v), v))
                cand = queues[victim][-1]
                cand_sizes = sizes[cand.idx]
                approach = m.choose_approach(cand_sizes, precision, options)
                est_here = m.estimate_cost(cand_sizes, precision, approach)
                # Steal only when the thief finishes the chunk before
                # the victim's whole backlog would have.
                if rel(name) + est_here >= rel(victim) + backlog(victim):
                    active.discard(name)
                    continue
                chunk = replace(
                    queues[victim].pop(), member=name, approach=approach, est=est_here
                )
                stolen = True
                tracer.instant(
                    "hetero-steal",
                    Track("hetero", name),
                    cat="hetero",
                    args={"chunk": chunk.ordinal, "victim": victim,
                          "count": int(chunk.idx.size)},
                )
                # The returned table reflects what actually ran; the
                # hetero-place span keeps the pre-execution decisions.
                for d in placement:
                    if d["chunk"] == chunk.ordinal:
                        d["member"] = name
                        d["kind"] = m.kind
                        d["approach"] = approach
                        d["est_s"] = float(est_here)
                        d["stolen_from"] = victim
            else:
                active.discard(name)
                continue
            with tracer.span(
                "hetero-chunk",
                Track("hetero", name),
                cat="hetero",
                args={
                    "chunk": chunk.ordinal,
                    "count": int(chunk.idx.size),
                    "max_n": int(sizes[chunk.idx].max()),
                    "approach": chunk.approach,
                    "op": op,
                    "stolen": stolen,
                },
            ):
                run = m.run_chunk(
                    batch,
                    chunk.idx,
                    options,
                    plan_cache=plan_cache,
                    approach=chunk.approach,
                    stolen=stolen,
                    op=op,
                )
            infos[chunk.idx] = run.infos
            if run.outputs:
                _scatter_outputs(outputs, run.outputs, chunk.idx, k, max_n)
            stats[name].record(run)
            if run.launch_stats is not None:
                merged.merge(run.launch_stats)
            merged.chunks += 1
            merged.work_steals += int(stolen)
    except BaseException as exc:
        # Leave what completed on the error so a retrying caller (the
        # serving fleet) can account attempt-1 work exactly once.
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
        op=op,
        approach="hetero[" + "+".join(approaches) + "]",
        elapsed=elapsed,
        total_flops=op_desc.batch_flops(sizes, precision),
        infos=infos,
        launch_stats=merged,
        max_n=max_n,
        outputs=outputs,
        meta={"op": op, "planner": "hetero", "chunks": len(placement)},
        placement=placement,
        member_stats=[stats[m.name] for m in eligible],
    )
