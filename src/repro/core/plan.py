"""The launch-plan IR: what a driver *wants* to run, not how it runs.

The paper's driver (§III-F) is a host loop that eagerly launches fused
or separated kernels.  Here that loop is split in two:

* **Planning** — the drivers in :mod:`repro.core.fused`,
  :mod:`repro.core.separated`, :mod:`repro.core.blas_steps`,
  :mod:`repro.core.partial` and :mod:`repro.core.fixed` emit a
  :class:`LaunchPlan`: an ordered DAG of :class:`KernelLaunch` /
  :class:`AuxLaunch` / :class:`Barrier` nodes with explicit logical
  streams and dependency edges.  Planning never touches the simulated
  clock.
* **Execution** — :class:`repro.device.executor.PlanExecutor` walks the
  DAG on a device, mapping logical streams to real
  :class:`~repro.device.stream.Stream` objects.

A plan's node order is a valid topological order by construction
(:class:`PlanBuilder` only lets a node depend on earlier nodes).  Nodes
on the same logical stream are implicitly ordered by the stream's
in-order queue; cross-stream edges are realized with events, and
:class:`Barrier` nodes join streams back to the host.

A plan holds shapes, never data: planners read the batch's sizes and
precision, and the batch binds at execute time
(``PlanExecutor.execute(plan, batch)``) as the ``(batch, workspace)``
operands of every launch (:meth:`LaunchPlan.operands`).  One plan
serves every batch of its shape, so :class:`PlanCache` keys on shape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import PlanError
from ..observability.trace import Track, current_tracer

__all__ = [
    "AuxLaunch",
    "Barrier",
    "KernelLaunch",
    "LaunchPlan",
    "PlanBuilder",
    "PlanCache",
    "PlanNode",
    "batch_fingerprint",
]

DEFAULT_STREAM = 0


def _cache_track(device) -> Track:
    """Trace track for plan-cache events: the device's planner row."""
    return Track(getattr(device, "name", "planner"), "planner")


class PlanNode:
    """Common shape of every node in a :class:`LaunchPlan`.

    ``index`` is the node's position in the plan (its id); ``deps`` are
    indices of earlier nodes this node must wait for.  Same-stream
    ordering is implicit, so ``deps`` only matters across streams.
    Nodes are slotted records, set once by their planner and never
    changed afterwards (the optimizer builds new ones).
    """

    __slots__ = ("index", "stream", "deps")

    def __init__(self, index: int, stream: int = DEFAULT_STREAM, deps: tuple[int, ...] = ()):
        self.index = index
        self.stream = stream
        self.deps = deps

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for cls in reversed(type(self).__mro__)
            for name in getattr(cls, "__slots__", ())
        )
        return f"{type(self).__name__}({fields})"


class KernelLaunch(PlanNode):
    """Launch one compute kernel on a logical stream."""

    __slots__ = ("kernel", "tag")

    def __init__(self, index: int, stream: int = DEFAULT_STREAM, deps: tuple[int, ...] = (),
                 kernel: object = None, tag: str = "kernel"):
        super().__init__(index, stream, deps)
        self.kernel = kernel
        self.tag = tag


class AuxLaunch(KernelLaunch):
    """Launch a metadata/auxiliary kernel (step sizes, reductions)."""

    __slots__ = ()

    def __init__(self, index: int, stream: int = DEFAULT_STREAM, deps: tuple[int, ...] = (),
                 kernel: object = None, tag: str = "aux"):
        super().__init__(index, stream, deps, kernel, tag)


class Barrier(PlanNode):
    """Join point: the host drains ``streams`` (``None`` = every stream
    the plan has touched) and then the whole device."""

    __slots__ = ("streams",)

    def __init__(self, index: int, stream: int = DEFAULT_STREAM, deps: tuple[int, ...] = (),
                 streams: tuple[int, ...] | None = None):
        super().__init__(index, stream, deps)
        self.streams = streams


@dataclass
class LaunchPlan:
    """An executable DAG of launches plus the resources it owns.

    It keeps no reference to the batch it was planned from.
    ``workspaces`` are pool blocks acquired at plan time; they stay
    alive for the plan's lifetime (a cached plan re-executes against the
    same workspace memory) and return to the pool on :meth:`close`.
    ``workspace`` is the one the kernels name as operand slot
    ``WORKSPACE``.  The ``meta["outputs"]`` containers (``taus``,
    ``ipivs``, ...) are the plan's too, refilled by every execution.
    ``program`` is the lowered form of ``nodes`` (a
    :class:`~repro.device.executor.LaunchProgram`), which the executor
    replays instead of walking the nodes.  :meth:`PlanBuilder.build`
    and the plan optimizer lower every plan without barriers; plans
    with barriers keep ``None``.
    """

    device: object
    nodes: list[PlanNode] = field(default_factory=list)
    workspaces: list[object] = field(default_factory=list)
    workspace: object = None
    run_stats: object = None
    meta: dict = field(default_factory=dict)
    program: object = None
    closed: bool = False

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def kernel_launches(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, KernelLaunch))

    @property
    def streams_used(self) -> tuple[int, ...]:
        return tuple(sorted({n.stream for n in self.nodes if isinstance(n, KernelLaunch)}))

    def validate(self) -> None:
        """Check the node list is a well-formed DAG in topological order."""
        for node in self.nodes:
            deps = node.deps
            if deps and (max(deps) >= node.index or min(deps) < 0):
                raise PlanError(
                    f"node {node.index} depends on {deps}: edges must point backwards"
                )
            if isinstance(node, KernelLaunch) and node.kernel is None:
                raise PlanError(f"node {node.index} is a launch without a kernel")

    def operands(self, batch) -> tuple:
        """The containers every launch binds: ``(batch, workspace)``."""
        return (batch, None if self.workspace is None else self.workspace.data)

    def close(self) -> None:
        """Release owned workspaces back to the device (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for ws in self.workspaces:
            self.device.pool.release(ws)
        self.workspaces.clear()


class PlanBuilder:
    """Append-only constructor the planners drive.

    Exposes a :meth:`launch` with the same calling shape as
    ``Device.launch`` so kernel-emitting helpers (e.g. the trsm panel
    builder) work unchanged against either target.
    """

    def __init__(self, device):
        self.device = device
        self._nodes: list[PlanNode] = []
        self._workspaces: list[object] = []
        self._workspace = None
        self._tag: str | None = None
        self._built = False

    # -- node emission --------------------------------------------------
    def launch(self, kernel, stream: int = DEFAULT_STREAM, after=(), tag: str | None = None):
        """Append a compute-kernel launch; returns its node index."""
        node = KernelLaunch(
            index=len(self._nodes),
            stream=int(stream),
            deps=tuple(after),
            kernel=kernel,
            tag=tag or self._tag or "kernel",
        )
        self._nodes.append(node)
        return node.index

    def aux(self, kernel, stream: int = DEFAULT_STREAM, after=()):
        """Append an auxiliary (metadata) launch; returns its node index."""
        node = AuxLaunch(
            index=len(self._nodes), stream=int(stream), deps=tuple(after), kernel=kernel
        )
        self._nodes.append(node)
        return node.index

    def barrier(self, streams=None, after=()):
        """Append a host join over ``streams`` (``None`` = all)."""
        node = Barrier(
            index=len(self._nodes),
            deps=tuple(after),
            streams=None if streams is None else tuple(streams),
        )
        self._nodes.append(node)
        return node.index

    @contextmanager
    def tagged(self, tag: str):
        """Default ``tag`` for launches emitted inside the block (lets
        helpers that call plain ``launch(kernel)`` land in the right
        stats counter)."""
        prev, self._tag = self._tag, tag
        try:
            yield self
        finally:
            self._tag = prev

    # -- resources ------------------------------------------------------
    def workspace(self, shape, dtype):
        """Acquire a pool block owned by the resulting plan."""
        ws = self.device.pool.get(shape, dtype)
        self._workspaces.append(ws)
        return ws

    def operand_workspace(self, shape, dtype):
        """Acquire the plan-owned block its kernels name as operand slot
        ``WORKSPACE`` (one per plan)."""
        if self._workspace is not None:
            raise PlanError("a plan has one operand workspace")
        self._workspace = self.workspace(shape, dtype)
        return self._workspace

    # -- lifecycle ------------------------------------------------------
    def build(self, run_stats=None, meta=None) -> LaunchPlan:
        """Validate the nodes into a :class:`LaunchPlan`, lowered to a
        replayable program when it has no barriers."""
        from ..device.executor import LaunchProgram

        if self._built:
            raise PlanError("builder already produced its plan")
        self._built = True
        plan = LaunchPlan(
            device=self.device,
            nodes=self._nodes,
            workspaces=self._workspaces,
            workspace=self._workspace,
            run_stats=run_stats,
            meta=meta or {},
        )
        plan.validate()
        plan.program = LaunchProgram.lower(plan)
        return plan

    def abandon(self) -> None:
        """Release acquired workspaces after a failed planning attempt."""
        for ws in self._workspaces:
            self.device.pool.release(ws)
        self._workspaces.clear()
        self._built = True


def batch_fingerprint(batch) -> tuple:
    """Hashable identity of everything planning reads from a batch: its
    count, precision and sizes (the bytes themselves, so two size
    vectors never share a key; no planner reads the ldas)."""
    return (batch.batch_count, batch.precision.value, batch.sizes_host.tobytes())


class PlanCache:
    """LRU cache of :class:`LaunchPlan` keyed on the planning inputs.

    The key covers the device, planner label, options fingerprint and
    the batch's size/precision fingerprint — everything a planner
    reads.  Plans are shape-only (see :class:`LaunchPlan`), so a hit
    serves any batch of that shape.

    Every execution reuses a plan's workspaces and outputs, so one plan
    must never run twice at once.  Keys lead with ``id(device)`` and one
    thread drives a device, so it never does, even across fleet replicas
    that share a cache.  The cache itself is thread-safe: a reentrant
    lock guards the LRU map and the hit/miss counters but is never held
    across ``build()``: :meth:`get_or_build` registers a per-key
    in-flight build instead, so requests for the same key wait for one
    build (never racing to double-build and close one another's plans)
    while builds for different keys run concurrently.
    """

    def __init__(self, max_plans: int = 32):
        if max_plans <= 0:
            raise PlanError(f"max_plans must be positive, got {max_plans}")
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple, LaunchPlan] = OrderedDict()
        self._lock = threading.RLock()
        #: key -> event set when the in-flight build of that key ends.
        self._building: dict[tuple, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.planner_calls = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    @staticmethod
    def key_for(device, batch, max_n: int, label: str, options_key,
                optimize: str = "none", streams: int | None = None,
                op: str = "potrf") -> tuple:
        """Cache key for one (device, op, batch-shape, planner, options) combo.

        ``op`` is the *operation tag* (potrf, geqrf, getrf, gesvj, ...)
        and is a structural element of the key, distinct from ``label``
        (the free-form planner/approach name): two operations planned
        for identical (device, sizes, options) must never collide even
        if a planner reuses a label string.  ``optimize`` (the
        plan-optimizer level) and ``streams`` (the device's hardware
        queue count, which bounds the optimizer's stream rebalancing)
        are part of the key: an optimized plan and an unoptimized plan
        for the same ``batch_fingerprint`` are different DAGs.
        ``id(device)`` stays the leading element — :meth:`evict` matches
        on it.
        """
        if streams is None:
            streams = int(getattr(getattr(device, "spec", None), "hardware_queues", 0) or 0)
        return (
            id(device), str(op), label, int(max_n), options_key,
            str(optimize), int(streams), batch_fingerprint(batch),
        )

    def get(self, key: tuple) -> LaunchPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: tuple, plan: LaunchPlan) -> LaunchPlan:
        with self._lock:
            old = self._plans.pop(key, None)
            if old is not None and old is not plan:
                old.close()
            self._plans[key] = plan
            evicted_count = 0
            while len(self._plans) > self.max_plans:
                _, evicted = self._plans.popitem(last=False)
                evicted.close()
                self.evictions += 1
                evicted_count += 1
            if evicted_count:
                tracer = current_tracer()
                if tracer:
                    tracer.instant(
                        "plan-cache-evict", _cache_track(plan.device),
                        cat="plan-cache", args={"count": evicted_count},
                    )
            return plan

    def get_or_build(self, key: tuple, device, build) -> LaunchPlan:
        """Serve a cached plan or call ``build()`` (counted) and store it.

        ``device`` (the key's) names the lookup's trace track.

        With a tracer active the lookup outcome becomes a
        ``plan-cache-hit`` / ``plan-cache-miss`` instant and the build
        itself a wall-clock ``plan-build`` span — the "plan build" leg
        of the trace report's critical-path breakdown.
        """
        tracer = current_tracer()
        while True:
            with self._lock:
                pending = self._building.get(key)
                if pending is None:
                    plan = self.get(key)
                    if plan is not None:
                        if tracer:
                            tracer.instant(
                                "plan-cache-hit", _cache_track(plan.device), cat="plan-cache"
                            )
                        return plan
                    self.planner_calls += 1
                    done = self._building[key] = threading.Event()
                    break
            # Another thread is building this key: wait, then look again.
            pending.wait()
        try:
            if tracer:
                track = _cache_track(device)
                tracer.instant("plan-cache-miss", track, cat="plan-cache")
                t0 = tracer.wall_clock()
                plan = self.put(key, build())
                tracer.add_span(
                    "plan-build", track, t0, tracer.wall_clock(),
                    cat="plan", clock="wall", args={"nodes": len(plan)},
                )
            else:
                plan = self.put(key, build())
        finally:
            with self._lock:
                del self._building[key]
            done.set()
        return plan

    def publish(self, registry, prefix: str = "plan_cache") -> None:
        """Snapshot the traffic counters into a metrics registry.

        Gauges (idempotent set), so a caller may re-publish after every
        repeat without double counting — the ``profile --repeat`` path.
        """
        with self._lock:
            values = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "planner_calls": self.planner_calls,
                "size": len(self._plans),
                "hit_ratio": self.hits / (self.hits + self.misses)
                if (self.hits + self.misses)
                else 0.0,
            }
        for name, value in values.items():
            registry.gauge(f"{prefix}_{name}", f"plan cache {name}").set(value)

    def evict(self, device=None) -> int:
        """Drop (and close) cached plans; returns how many were evicted.

        ``device=None`` clears everything; otherwise only plans keyed to
        that device go — the serving loop calls this when a device
        leaves the dispatch group, so its workspace pool drains without
        disturbing the plans of its peers.
        """
        with self._lock:
            if device is None:
                doomed = list(self._plans)
            else:
                doomed = [k for k in self._plans if k[0] == id(device)]
            for key in doomed:
                self._plans.pop(key).close()
            self.evictions += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for plan in self._plans.values():
                plan.close()
            self._plans.clear()
