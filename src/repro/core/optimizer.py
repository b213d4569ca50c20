"""LaunchPlan optimizer: a pass pipeline over the plan DAG.

The planners emit a *conservative* plan shape: full :class:`Barrier`
joins between factorization steps, one :class:`KernelLaunch` per size
bucket (even a tiny one), and launches that cover matrices which
already finished.  This module rewrites that shape without touching the
numerics plane — the paper's "ignore finished matrices" driver behavior
(§IV) done at plan time, plus the dependency-pruned synchronization of
BLASX-style runtime DAG scheduling.

Four passes, applied in a fixed order by :func:`optimize_plan`:

``elide``
    Drop whole-device :class:`Barrier` nodes.  Correct ordering is
    restored by the dependency-synthesis stage, which computes minimal
    cross-stream event edges from each launch's true read/write set —
    so step *k+1* work on matrices that finished step *k* early starts
    as soon as its own inputs are ready.
``prune``
    Drop launches whose per-matrix active set is empty, and shrink
    launches (fused windows, vbatched syrk/gemm task lists) to their
    live matrices, removing ETM'd dead blocks from the timing plane.
``coalesce``
    Merge adjacent same-stream launches of the same kernel class whose
    size buckets fall in the same grouping class (identical launch
    configuration / tile class) into one batched launch, cutting
    per-launch overhead for tiny-matrix tails.
``lpt``
    Re-assign runs of mutually independent launches to streams by
    calibrated-duration longest-processing-time scheduling, so the
    trace report's per-stream occupancy evens out.  The independent
    runs are recorded in ``plan.meta`` so the executor can run their
    numerics on a thread pool.

Numerics safety argument: the executor runs ``run_numerics`` strictly
in node-list order, so results depend only on that order.  No pass
reorders two launches that *conflict* (write/write or read/write on the
same matrix or workspace); pruning only removes work whose functional
plane already filters to live matrices.  Optimized plans are therefore
bit-identical to unoptimized ones on the numerics plane.

Access tokens: a launch's read/write sets contain batch indices
(``int``), workspace identities (``("ws", id(array))``), the wildcard
``"*"`` (any matrix) or ``"**"`` (anything at all, for unknown
kernels).  Compute kernels in this codebase never read the auxiliary
workspaces on the host path (group keys are passed host-side by the
planners), which is what lets :class:`~repro.kernels.aux
.StepSizesKernel` launches float freely between compute launches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import PlanError
from ..kernels import grouping
from ..kernels.aux import IMaxReduceKernel, StepSizesKernel
from ..kernels.fused_potrf import FusedPotrfStepKernel
from ..kernels.gemm import VbatchedGemmKernel
from ..kernels.naive import NaivePotf2Kernel
from ..kernels.potf2 import PanelPotf2StepKernel
from ..kernels.syrk import VbatchedSyrkKernel
from ..kernels.trtri import VbatchedTrtriDiagKernel
from ..observability.trace import Track, current_tracer
from .plan import AuxLaunch, Barrier, KernelLaunch, LaunchPlan, PlanNode

__all__ = [
    "PASS_NAMES",
    "ancestor_masks",
    "node_access",
    "optimize_plan",
    "publish_optimizer_counters",
    "resolve_passes",
    "with_level",
]

#: Canonical pass order; ``optimize="all"`` runs every pass.
PASS_NAMES = ("elide", "prune", "coalesce", "lpt")

#: Wildcard token: conflicts with every matrix index.
STAR = "*"
#: Wildcard token: conflicts with everything (unknown kernel types).
STAR_ALL = "**"

#: Counter names the passes publish (issue-mandated registry names).
OPTIMIZER_COUNTERS = (
    ("plan_opt_barriers_elided", "barriers_elided",
     "Barrier nodes removed by the plan optimizer's elide pass"),
    ("plan_opt_launches_merged", "launches_merged",
     "Kernel launches coalesced into an earlier launch"),
    ("plan_opt_launches_pruned", "launches_pruned",
     "Dead kernel launches dropped by the plan optimizer"),
)


def resolve_passes(level) -> tuple[str, ...]:
    """Normalize an optimization level to an ordered pass tuple.

    Accepts ``"none"``/``None``/``""``, ``"all"``, a single pass name,
    or a ``"+"``-joined combination (``"elide+prune"``).  Raises
    :class:`ValueError` for unknown pass names.
    """
    if level is None or level in ("none", ""):
        return ()
    if level == "all":
        return PASS_NAMES
    wanted = set()
    for part in str(level).split("+"):
        part = part.strip()
        if part in ("", "none"):
            continue
        if part == "all":
            return PASS_NAMES
        if part not in PASS_NAMES:
            raise ValueError(
                f"unknown optimization pass {part!r}; "
                f"expected 'none', 'all', or '+'-joined {PASS_NAMES}"
            )
        wanted.add(part)
    return tuple(p for p in PASS_NAMES if p in wanted)


@functools.lru_cache(maxsize=64)
def with_level(options, level: str):
    """``options`` (a frozen options dataclass) with ``optimize=level``.

    Cached, so a per-call ``optimize=`` override hands the same options
    object to the plan cache every time and its key matches by identity
    instead of a field-by-field comparison.
    """
    return replace(options, optimize=level)


# ----------------------------------------------------------------------
# access sets
# ----------------------------------------------------------------------
def _kernel_access(kernel) -> tuple[set, set]:
    """(reads, writes) token sets for one kernel launch."""
    if isinstance(kernel, FusedPotrfStepKernel):
        return set(), {int(i) for i in kernel.indices}
    if isinstance(kernel, PanelPotf2StepKernel):
        local = kernel.inner_step * kernel.nb
        return set(), {int(i) for i in np.flatnonzero(kernel.jbs > local)}
    if isinstance(kernel, NaivePotf2Kernel):
        return set(), {int(i) for i in np.flatnonzero(kernel.jbs > 0)}
    if isinstance(kernel, StepSizesKernel):
        return set(), {
            ("ws", id(kernel.remaining_dev)),
            ("ws", id(kernel.panel_dev)),
            ("ws", id(kernel.stats_dev)),
        }
    if isinstance(kernel, IMaxReduceKernel):
        return {("ws", id(kernel.values_dev))}, {("ws", id(kernel.result_dev))}
    indices = getattr(kernel, "matrix_indices", None)
    if indices is not None:
        return set(), {int(i) for i in indices}
    if isinstance(kernel, (VbatchedSyrkKernel, VbatchedGemmKernel, VbatchedTrtriDiagKernel)):
        return set(), {STAR}
    return {STAR_ALL}, {STAR_ALL}


def node_access(node: PlanNode) -> tuple[frozenset, frozenset]:
    """Public (reads, writes) access sets for a plan node.

    Barriers return empty sets — they order by fencing, not by data.
    """
    if isinstance(node, KernelLaunch) and node.kernel is not None:
        r, w = _kernel_access(node.kernel)
        return frozenset(r), frozenset(w)
    return frozenset(), frozenset()


def _intersects(a: set, b: set) -> bool:
    if not a or not b:
        return False
    if STAR_ALL in a or STAR_ALL in b:
        return True
    if STAR in a and (STAR in b or any(isinstance(t, int) for t in b)):
        return True
    if STAR in b and any(isinstance(t, int) for t in a):
        return True
    return not a.isdisjoint(b)


def _conflicts(w1: set, r1: set, w2: set, r2: set) -> bool:
    return _intersects(w1, w2) or _intersects(w1, r2) or _intersects(r1, w2)


# ----------------------------------------------------------------------
# working representation
# ----------------------------------------------------------------------
@dataclass
class _Work:
    """Mutable per-node state while the passes rewrite the plan."""

    node: PlanNode
    stream: int
    kernel: object = None
    reads: set = field(default_factory=set)
    writes: set = field(default_factory=set)
    origin: tuple = ()

    @property
    def is_barrier(self) -> bool:
        return isinstance(self.node, Barrier)

    @property
    def is_aux(self) -> bool:
        return isinstance(self.node, AuxLaunch)


def _build_works(plan: LaunchPlan) -> list[_Work]:
    works = []
    for node in plan.nodes:
        if isinstance(node, Barrier):
            works.append(_Work(node=node, stream=node.stream, origin=(node.index,)))
        else:
            reads, writes = _kernel_access(node.kernel)
            works.append(
                _Work(
                    node=node,
                    stream=node.stream,
                    kernel=node.kernel,
                    reads=reads,
                    writes=writes,
                    origin=(node.index,),
                )
            )
    return works


# ----------------------------------------------------------------------
# pass 1: barrier elision
# ----------------------------------------------------------------------
def _pass_elide(works: list[_Work], device, report: dict) -> list[_Work]:
    kept = [w for w in works if not w.is_barrier]
    report["barriers_elided"] += len(works) - len(kept)
    return kept


# ----------------------------------------------------------------------
# pass 2: dead-launch pruning
# ----------------------------------------------------------------------
def _copy_matrix_indices(kernel, keep: list[bool], task_count: int):
    """Filter a kernel's ``matrix_indices`` by a task keep-mask."""
    indices = getattr(kernel, "matrix_indices", None)
    if indices is None:
        return None
    if len(indices) == task_count:
        return tuple(int(i) for i, k in zip(indices, keep) if k)
    return tuple(indices)  # unknown mapping: keep the (superset) annotation


def _shrink_kernel(kernel):
    """Drop a launch's finished matrices; ``(kernel', tasks_removed)``.

    Returns the same object when nothing is dead, ``None`` when the
    whole launch is dead.  Never mutates the input — cached plans may
    share kernel objects.
    """
    if isinstance(kernel, FusedPotrfStepKernel):
        remaining = kernel.sizes[kernel.indices] - kernel.step * kernel.nb
        live = remaining > 0
        dead = int(len(kernel.indices) - live.sum())
        if not dead:
            return kernel, 0
        if not live.any():
            return None, dead
        shrunk = FusedPotrfStepKernel(
            kernel.sizes,
            kernel.precision,
            kernel.step,
            kernel.nb,
            kernel.indices[live],
            int(remaining[live].max()),
            etm=kernel.etm_mode,
            groups=grouping.grouped_first_seen(remaining[live]),
        )
        shrunk.name = kernel.name
        return shrunk, dead
    if isinstance(kernel, (PanelPotf2StepKernel, NaivePotf2Kernel)):
        local = kernel.inner_step * kernel.nb if isinstance(kernel, PanelPotf2StepKernel) else 0
        if not np.any(kernel.jbs > local):
            return None, int(len(kernel.jbs))
        return kernel, 0  # jbs is batch-position-aligned; cannot compress
    if isinstance(kernel, VbatchedSyrkKernel):
        keep = [t.n > 0 for t in kernel.tasks]
        dead = len(keep) - sum(keep)
        if not dead:
            return kernel, 0
        if not any(keep):
            return None, dead
        shrunk = VbatchedSyrkKernel(
            [t for t, k in zip(kernel.tasks, keep) if k], kernel._prec, kernel.tiling
        )
        shrunk.name = kernel.name
        shrunk.matrix_indices = _copy_matrix_indices(kernel, keep, len(keep))
        return shrunk, dead
    if isinstance(kernel, VbatchedGemmKernel):
        # k == 0 tasks with m, n > 0 stay: they scale C by beta.
        keep = [t.m > 0 and t.n > 0 for t in kernel.tasks]
        dead = len(keep) - sum(keep)
        if not dead:
            return kernel, 0
        if not any(keep):
            return None, dead
        shrunk = VbatchedGemmKernel(
            [t for t, k in zip(kernel.tasks, keep) if k], kernel._prec, kernel.tiling
        )
        shrunk.name = kernel.name
        shrunk.matrix_indices = _copy_matrix_indices(kernel, keep, len(keep))
        return shrunk, dead
    return kernel, 0


def _pass_prune(works: list[_Work], device, report: dict) -> list[_Work]:
    out = []
    for w in works:
        if w.is_barrier or w.kernel is None or w.is_aux:
            out.append(w)
            continue
        shrunk, removed = _shrink_kernel(w.kernel)
        if shrunk is None:
            report["launches_pruned"] += 1
            report["tasks_pruned"] += removed
            continue
        if shrunk is not w.kernel:
            w.kernel = shrunk
            w.reads, w.writes = _kernel_access(shrunk)
            report["tasks_pruned"] += removed
        out.append(w)
    return out


# ----------------------------------------------------------------------
# pass 3: launch coalescing
# ----------------------------------------------------------------------
def _tiling_key(tiling):
    return (tiling.blk_m, tiling.blk_n, tiling.blk_k, tiling.threads, tiling.regs_per_thread)


def _coalesce_key(w: _Work):
    """Grouping-class key; only same-key launches may merge.

    Fused windows merge when their launch configuration is identical
    (same warp-rounded ``max_m``, hence same threads + shared memory);
    vbatched syrk launches merge within a tile class (same
    ``ceil(max_n / blk_m)``), which keeps the merged grid — and the
    timing plane's dead-block accounting — exact.
    """
    k = w.kernel
    if isinstance(k, FusedPotrfStepKernel):
        cfg = k.launch_config()
        return (
            "fused", k.step, k.nb, k.etm_mode,
            cfg.threads_per_block, cfg.shared_mem_per_block, w.node.tag, w.stream,
        )
    if isinstance(k, VbatchedSyrkKernel):
        tiles = max(1, -(-k.max_n // k.tiling.blk_m))
        return ("syrk", k.name, k._prec, _tiling_key(k.tiling), tiles, w.node.tag, w.stream)
    return None


def _merge_grouped(a, b):
    """First-seen merge of two ``(values, counts)`` group tuples."""
    acc: dict = {}
    for values, counts in (a, b):
        for v, c in zip(np.asarray(values).tolist(), np.asarray(counts).tolist()):
            acc[v] = acc.get(v, 0) + int(c)
    values = np.asarray(list(acc.keys()), dtype=np.asarray(a[0]).dtype)
    counts = np.asarray(list(acc.values()), dtype=np.int64)
    return values, counts


def _merge_kernels(a, b):
    """One batched launch covering both, or ``None`` if unsupported."""
    if isinstance(a, FusedPotrfStepKernel) and isinstance(b, FusedPotrfStepKernel):
        groups = None
        if a.groups is not None and b.groups is not None:
            groups = _merge_grouped(a.groups, b.groups)
        merged = FusedPotrfStepKernel(
            a.sizes,
            a.precision,
            a.step,
            a.nb,
            np.concatenate([a.indices, b.indices]),
            max(a.max_m, b.max_m),
            etm=a.etm_mode,
            groups=groups,
        )
        merged.name = a.name
        return merged
    if isinstance(a, VbatchedSyrkKernel) and isinstance(b, VbatchedSyrkKernel):
        merged = VbatchedSyrkKernel(list(a.tasks) + list(b.tasks), a._prec, a.tiling)
        merged.name = a.name
        if a.matrix_indices is not None and b.matrix_indices is not None:
            merged.matrix_indices = tuple(a.matrix_indices) + tuple(b.matrix_indices)
        return merged
    return None


def _pass_coalesce(works: list[_Work], device, report: dict) -> list[_Work]:
    # pending: key -> [position in out, reads-between, writes-between].
    # The "between" accumulators hold the accesses of every node emitted
    # after the pending head; a later candidate may only jump back and
    # merge when it conflicts with none of them (its numerics commute
    # with everything it moves ahead of).
    pending: dict = {}
    out: list[_Work] = []
    for w in works:
        if w.is_barrier:
            pending.clear()
            out.append(w)
            continue
        key = _coalesce_key(w) if (w.kernel is not None and not w.is_aux) else None
        merged_into = None
        if key is not None and key in pending:
            pos, between_r, between_w = pending[key]
            head = out[pos]
            safe = not _conflicts(head.writes, head.reads, w.writes, w.reads)
            safe = safe and not _conflicts(between_w, between_r, w.writes, w.reads)
            if safe:
                merged = _merge_kernels(head.kernel, w.kernel)
                if merged is not None:
                    head.kernel = merged
                    head.reads = head.reads | w.reads
                    head.writes = head.writes | w.writes
                    head.origin = head.origin + w.origin
                    report["launches_merged"] += 1
                    merged_into = key
            if merged_into is None:
                del pending[key]  # stale/unmergeable; w reopens the slot below
        for other, entry in pending.items():
            if other != merged_into:
                entry[1].update(w.reads)
                entry[2].update(w.writes)
        if merged_into is not None:
            continue
        out.append(w)
        if key is not None:
            pending[key] = [len(out) - 1, set(), set()]
    return out


# ----------------------------------------------------------------------
# pass 4: LPT stream rebalancing
# ----------------------------------------------------------------------
def estimate_launch_duration(device, kernel) -> float:
    """Calibrated single-launch duration (seconds) from the cost model.

    Pure: reads the device spec/calibration without touching its clock.
    Falls back to a block-count proxy if the kernel rejects its own
    configuration.
    """
    try:
        _, schedule, _ = device.prepare_launch(kernel)
        return float(schedule.makespan) + float(device.spec.kernel_launch_overhead)
    except Exception:
        return float(max(1, kernel.total_blocks())) * 1e-6


def _pass_lpt(works: list[_Work], device, max_streams: int, report: dict) -> list[_Work]:
    groups: list[list[int]] = []
    members: list[int] = []
    acc_r: set = set()
    acc_w: set = set()

    def close():
        if len(members) > 1:
            groups.append(list(members))
        members.clear()
        acc_r.clear()
        acc_w.clear()

    for pos, w in enumerate(works):
        if w.is_barrier:
            close()
            continue
        if w.is_aux or w.kernel is None:
            # Aux launches only touch workspace tokens, which compute
            # kernels never read — they float unless they conflict.
            if _conflicts(acc_w, acc_r, w.writes, w.reads):
                close()
            continue
        if _conflicts(acc_w, acc_r, w.writes, w.reads):
            close()
        members.append(pos)
        acc_r |= w.reads
        acc_w |= w.writes
    close()

    parallel_groups = []
    for group in groups:
        durations = [estimate_launch_duration(device, works[p].kernel) for p in group]
        total, longest = sum(durations), max(durations)
        # Densest width that still hides the work: never narrower than
        # the planner's own stream spread (so simulated overlap cannot
        # regress), never wider than the hardware queues.
        original_width = len({works[p].stream for p in group})
        dense = max(1, math.ceil(total / longest)) if longest > 0 else len(group)
        width = min(len(group), max_streams, max(dense, original_width))
        order = sorted(range(len(group)), key=lambda j: (-durations[j], j))
        loads = [0.0] * width
        for j in order:
            target = min(range(width), key=lambda s: (loads[s], s))
            works[group[j]].stream = 1 + target
            loads[target] += durations[j]
        report["groups_rebalanced"] += 1
        parallel_groups.append([int(p) for p in group])
    report["parallel_groups"] = parallel_groups
    return works


# ----------------------------------------------------------------------
# dependency synthesis
# ----------------------------------------------------------------------
def _writer_hits(last_writer: dict, token) -> list[int]:
    if token == STAR_ALL:
        return list(last_writer.values())
    if token == STAR:
        return [v for k, v in last_writer.items()
                if isinstance(k, int) or k in (STAR, STAR_ALL)]
    keys = (token, STAR, STAR_ALL) if isinstance(token, int) else (token, STAR_ALL)
    return [last_writer[k] for k in keys if k in last_writer]


def _reader_hits(readers: dict, token) -> list[int]:
    if token == STAR_ALL:
        return [i for group in readers.values() for i in group]
    if token == STAR:
        return [i for k, group in readers.items()
                if isinstance(k, int) or k in (STAR, STAR_ALL) for i in group]
    keys = (token, STAR, STAR_ALL) if isinstance(token, int) else (token, STAR_ALL)
    return [i for k in keys if k in readers for i in readers[k]]


def _commit_write(last_writer: dict, readers: dict, token, idx: int) -> None:
    if token == STAR_ALL:
        last_writer.clear()
        readers.clear()
        last_writer[STAR_ALL] = idx
        return
    if token == STAR:
        for k in [k for k in last_writer if isinstance(k, int) or k == STAR]:
            del last_writer[k]
        for k in [k for k in readers if isinstance(k, int) or k == STAR]:
            del readers[k]
        last_writer[STAR] = idx
        return
    last_writer[token] = idx
    readers.pop(token, None)


def _synthesize_deps(works: list[_Work]) -> list[tuple[int, ...]]:
    """Minimal cross-stream event edges from the access sets.

    Walks the final node order keeping last-writer / readers-since-write
    maps per token.  Same-stream ordering is implicit, barriers are full
    fences, and redundant edges are dropped with per-node vector clocks
    (``clock[stream] = latest index already ordered before this node``).
    """
    last_writer: dict = {}
    readers: dict = {}
    fence = -1
    prev_on_stream: dict = {}
    clocks: list[dict] = []
    deps_out: list[tuple[int, ...]] = []
    for i, w in enumerate(works):
        if w.is_barrier:
            fence = i
            clocks.append({})
            deps_out.append(())
            continue
        required = set()
        for token in w.reads:
            required.update(_writer_hits(last_writer, token))
        for token in w.writes:
            required.update(_writer_hits(last_writer, token))
            required.update(_reader_hits(readers, token))
        required = {p for p in required if p > fence and p != i}

        clock: dict = {}
        prev = prev_on_stream.get(w.stream)
        if prev is not None:
            clock.update(clocks[prev])
            clock[w.stream] = prev
        deps = []
        for p in sorted(required, reverse=True):
            p_stream = works[p].stream
            if p_stream == w.stream:
                continue  # implicit in-order stream queue
            if clock.get(p_stream, -1) >= p:
                continue  # already transitively ordered
            deps.append(p)
            for s, v in clocks[p].items():
                if clock.get(s, -1) < v:
                    clock[s] = v
            if clock.get(p_stream, -1) < p:
                clock[p_stream] = p
        clocks.append(clock)
        deps_out.append(tuple(sorted(deps)))
        prev_on_stream[w.stream] = i
        for token in w.reads:
            readers.setdefault(token, set()).add(i)
        for token in w.writes:
            _commit_write(last_writer, readers, token, i)
    return deps_out


def ancestor_masks(plan: LaunchPlan) -> list[int]:
    """Happens-before closure as bitmasks: bit ``j`` of ``masks[i]`` is
    set iff node ``j`` is ordered before node ``i`` under the executor's
    semantics (same-stream order, event edges, barrier fences).
    """
    masks: list[int] = []
    prev_on_stream: dict = {}
    fence_mask = 0
    for i, node in enumerate(plan.nodes):
        if isinstance(node, Barrier):
            before = (1 << i) - 1
            masks.append(before)
            fence_mask = before | (1 << i)
            continue
        mask = fence_mask
        prev = prev_on_stream.get(node.stream)
        if prev is not None:
            mask |= masks[prev] | (1 << prev)
        for dep in node.deps:
            mask |= masks[dep] | (1 << dep)
        masks.append(mask)
        prev_on_stream[node.stream] = i
    return masks


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def _rebuild_nodes(works: list[_Work], deps: list[tuple[int, ...]]) -> list[PlanNode]:
    # Remap any planner-authored edges through the origin mapping so
    # they survive the rewrite (no current planner authors edges, but
    # the contract is preserved for future ones).
    position_of: dict = {}
    for i, w in enumerate(works):
        for origin in w.origin:
            position_of[origin] = i
    nodes: list[PlanNode] = []
    for i, w in enumerate(works):
        if w.is_barrier:
            nodes.append(Barrier(index=i, stream=w.stream, deps=(), streams=w.node.streams))
            continue
        carried = {
            position_of[d]
            for d in w.node.deps
            if d in position_of and position_of[d] < i
        }
        merged_deps = tuple(sorted(set(deps[i]) | carried))
        cls = AuxLaunch if w.is_aux else KernelLaunch
        nodes.append(
            cls(index=i, stream=w.stream, deps=merged_deps, kernel=w.kernel, tag=w.node.tag)
        )
    return nodes


def optimize_plan(
    plan: LaunchPlan,
    level="all",
    max_streams: int | None = None,
    registry=None,
) -> LaunchPlan:
    """Run the pass pipeline over ``plan`` in place and return it.

    ``level`` is ``"none"``, ``"all"``, a pass name, or a ``"+"``-joined
    combination; ``max_streams`` caps LPT stream spread (default: the
    device spec's ``hardware_queues``).  The rewrite report lands in
    ``plan.meta["optimizer"]`` and, when ``registry`` is given, on the
    issue's ``plan_opt_*`` counters.
    """
    from ..device.executor import LaunchProgram

    passes = resolve_passes(level)
    if not passes:
        return plan
    if plan.closed:
        raise PlanError("cannot optimize a closed plan")
    device = plan.device
    if max_streams is None:
        spec = getattr(device, "spec", None)
        max_streams = int(getattr(spec, "hardware_queues", 8) or 8)
    max_streams = max(1, int(max_streams))

    tracer = current_tracer()
    track = Track(getattr(device, "name", "device"), "planner")
    report = {
        "level": str(level),
        "passes": list(passes),
        "nodes_before": len(plan.nodes),
        "barriers_elided": 0,
        "launches_merged": 0,
        "launches_pruned": 0,
        "tasks_pruned": 0,
        "groups_rebalanced": 0,
        "parallel_groups": [],
    }
    works = _build_works(plan)
    for name in passes:
        with tracer.span(f"plan-opt:{name}", track=track, cat="plan-opt"):
            if name == "elide":
                works = _pass_elide(works, device, report)
            elif name == "prune":
                works = _pass_prune(works, device, report)
            elif name == "coalesce":
                works = _pass_coalesce(works, device, report)
            elif name == "lpt":
                works = _pass_lpt(works, device, max_streams, report)
    with tracer.span("plan-opt:deps", track=track, cat="plan-opt"):
        deps = _synthesize_deps(works)
        plan.nodes = _rebuild_nodes(works, deps)
    plan.validate()
    report["nodes_after"] = len(plan.nodes)
    plan.program = LaunchProgram.lower(plan)
    plan.meta["optimizer"] = report
    if registry is not None:
        publish_optimizer_counters(plan, registry)
    return plan


def publish_optimizer_counters(plan, registry) -> None:
    """Bump the ``plan_opt_*`` registry counters from a plan's report."""
    meta = plan.meta.get("optimizer") if hasattr(plan, "meta") else None
    if not meta:
        return
    for counter_name, key, help_text in OPTIMIZER_COUNTERS:
        amount = int(meta.get(key, 0))
        counter = registry.counter(counter_name, help_text)
        if amount:
            counter.inc(amount)
