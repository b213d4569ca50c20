"""Stream-aware plan execution (the other half of the plan/execute split).

:class:`PlanExecutor` walks a :class:`~repro.core.plan.LaunchPlan` on
one device: nodes on the same logical stream serialize through the
stream's in-order queue, nodes on different streams overlap subject to
the device's shared SM-area constraint, cross-stream dependency edges
become event waits, and :class:`~repro.core.plan.Barrier` nodes drain
streams back to the host.

:func:`execute_concurrently` runs one plan per device, one after
another on the calling thread.  Each simulated device advances its own
clock, so a :class:`~repro.device.topology.DeviceGroup`'s makespan is
the slowest shard, not the sum: device concurrency lives on the clocks,
and host threads would only add GIL contention.

Execution is the stack's richest tracing site: with a tracer active
(:func:`repro.observability.trace.current_tracer`) every kernel launch
becomes a simulated-clock span on its device-stream track, cross-stream
event waits that actually blocked become wait spans, and barriers
become host-track spans.  All stamps are read *from* the device
(``LaunchRecord``, ``stream.ready_time``) after the fact, so tracing
can never move the simulated clock, and the disabled path is a single
falsy check per plan plus one per node.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import partial

from ..errors import PlanError, PlanExecutionError
from ..observability.trace import Track, current_tracer

__all__ = [
    "ExecutionStats",
    "LaunchProgram",
    "MemberStats",
    "PlanExecutor",
    "execute_concurrently",
]


@dataclass
class ExecutionStats:
    """What one plan execution actually launched.

    ``streams_used`` counts the logical streams that executed at least
    one launch — an empty plan reports 0, matching
    :attr:`~repro.core.plan.LaunchPlan.streams_used` rather than the
    executor's internal stream-map bookkeeping.  ``event_waits`` counts
    cross-stream dependency edges realized as event waits, and
    ``events_recorded`` the events recorded to serve them — the raw
    material of the overlap story the trace makes visible.
    """

    launches: int = 0
    aux_launches: int = 0
    barriers: int = 0
    by_tag: dict = field(default_factory=dict)
    streams_used: int = 0
    event_waits: int = 0
    events_recorded: int = 0

    def count(self, tag: str) -> int:
        return self.by_tag.get(tag, 0)

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another execution's counts into this one.

        Plain sums with a zero identity — ``streams_used`` included,
        since merged executions ran on distinct stream sets (different
        shards/devices or a re-execution's fresh streams).  The serving
        fleet folds the ``partial`` shard stats a
        :class:`~repro.errors.PlanExecutionError` carries through here
        before retrying the batch elsewhere.
        """
        self.launches += other.launches
        self.aux_launches += other.aux_launches
        self.barriers += other.barriers
        self.streams_used += other.streams_used
        self.event_waits += other.event_waits
        self.events_recorded += other.events_recorded
        for tag, count in other.by_tag.items():
            self.by_tag[tag] = self.by_tag.get(tag, 0) + count

    @property
    def kernel_launches(self) -> int:
        """Compute launches, i.e. everything that is not metadata."""
        return self.launches - self.aux_launches

    def publish(self, registry, prefix: str = "executor") -> None:
        """Fold these counts into a metrics registry (counters by tag)."""
        registry.counter(f"{prefix}_launches_total", "kernel launches executed").inc(
            self.launches
        )
        registry.counter(f"{prefix}_barriers_total", "host barriers executed").inc(
            self.barriers
        )
        registry.counter(f"{prefix}_event_waits_total", "cross-stream event waits").inc(
            self.event_waits
        )
        by_tag = registry.counter(
            f"{prefix}_launches_by_tag_total", "launches by plan tag", labels=("tag",)
        )
        for tag, count in sorted(self.by_tag.items()):
            by_tag.inc(count, tag=tag)


@dataclass
class MemberStats:
    """Per-member execution accounting for one heterogeneous run.

    One record per :class:`~repro.device.member.ComputeMember` in a
    :class:`~repro.device.hetero.HeteroGroup`: how many chunks the
    member executed (and how many of those it stole), the matrices and
    flops it absorbed, its busy span on the simulated clock, and the
    kernel launches it issued (GPU members; a CPU member launches
    nothing).  ``merge`` folds repeated runs of the same member — the
    serving layer accumulates these across dispatches.
    """

    name: str
    kind: str = "gpu"
    chunks: int = 0
    steals: int = 0
    matrices: int = 0
    flops: float = 0.0
    busy_s: float = 0.0
    launches: int = 0

    def record(self, run) -> None:
        """Fold one :class:`~repro.device.member.ChunkRun` in."""
        self.chunks += 1
        self.steals += int(bool(run.stolen))
        self.matrices += int(run.count)
        self.flops += float(run.flops)
        if run.launch_stats is not None:
            self.launches += int(run.launch_stats.executed_launches)

    def merge(self, other: "MemberStats") -> None:
        self.chunks += other.chunks
        self.steals += other.steals
        self.matrices += other.matrices
        self.flops += other.flops
        self.busy_s += other.busy_s
        self.launches += other.launches

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "chunks": self.chunks,
            "steals": self.steals,
            "matrices": self.matrices,
            "flops": self.flops,
            "busy_s": self.busy_s,
            "launches": self.launches,
        }

    def publish(self, registry, prefix: str = "hetero") -> None:
        """Export this member's placement outcome to a metrics registry."""
        registry.counter(
            f"{prefix}_chunks_total", "chunks executed per member", labels=("member", "kind")
        ).inc(self.chunks, member=self.name, kind=self.kind)
        registry.counter(
            f"{prefix}_steals_total", "chunks work-stolen per member", labels=("member",)
        ).inc(self.steals, member=self.name)
        registry.counter(
            f"{prefix}_matrices_total", "matrices placed per member", labels=("member",)
        ).inc(self.matrices, member=self.name)
        registry.gauge(
            f"{prefix}_busy_seconds", "member busy span, last run", labels=("member",)
        ).set(self.busy_s, member=self.name)


@dataclass(frozen=True)
class LaunchProgram:
    """A barrier-free plan lowered to runs of launches.

    ``segments`` holds one ``(stream, waits, kernels, record)`` per
    maximal run of consecutive launches on one logical stream: the
    earlier launches on other streams its first launch waits on, its
    kernels in plan order, and the node index of its last launch when a
    later launch waits on it (else ``None``).  A plan on stream 0 with
    no dependency edges (every fused plan) is one segment, so a replay
    is one launch call per kernel.  ``stats`` is what a replay reports,
    the same counts the node-by-node walk would produce.
    :meth:`~repro.core.plan.PlanBuilder.build` and the plan optimizer
    lower every plan they finish, so an execution skips the executor's
    per-node dispatch.
    """

    segments: tuple
    stats: ExecutionStats

    @classmethod
    def lower(cls, plan) -> LaunchProgram | None:
        """Lower ``plan``, or ``None`` when it has barrier nodes."""
        from ..core.plan import AuxLaunch, KernelLaunch

        nodes = plan.nodes
        if not all(isinstance(n, KernelLaunch) for n in nodes):
            return None
        tags = [n.tag for n in nodes]
        waits = [
            tuple(d for d in n.deps if nodes[d].stream != n.stream) if n.deps else ()
            for n in nodes
        ]
        recorded = {d for w in waits for d in w}
        segments = []
        sid = kernels = None
        for n, w in zip(nodes, waits):
            if n.stream != sid or w:
                sid, kernels = n.stream, [n.kernel]
                segments.append([sid, w, kernels, None])
            else:
                kernels.append(n.kernel)
            if n.index in recorded:
                segments[-1][3] = n.index
                sid = None  # the next launch starts a new segment
        stats = ExecutionStats(
            launches=len(nodes),
            aux_launches=sum(isinstance(n, AuxLaunch) for n in nodes),
            by_tag={tag: tags.count(tag) for tag in dict.fromkeys(tags)},
            streams_used=len({n.stream for n in nodes}),
            event_waits=sum(map(len, waits)),
            events_recorded=len(recorded),
        )
        return cls(tuple((s, w, tuple(k), r) for s, w, k, r in segments), stats)

    def replay(self, device, operands: tuple = (), run_numerics: bool | None = None) -> ExecutionStats:
        """Launch every segment on ``device``; logical streams other than
        0 get fresh streams, as in :meth:`PlanExecutor.execute`.
        ``operands`` and ``run_numerics`` are passed to every
        :meth:`Device.launch`."""
        launch = device.launch
        if run_numerics is not None:
            launch = partial(launch, run_numerics=run_numerics)
        if operands:
            launch = partial(launch, operands=operands)
        streams = {0: device.default_stream}
        events = {}  # node index -> its stream's frontier after it
        for sid, waits, kernels, record in self.segments:
            stream = streams.get(sid)
            if stream is None:
                stream = streams[sid] = device.create_stream()
            for dep in waits:
                # Stream.wait_event on the recorded frontier.
                if events[dep] > stream.ready_time:
                    stream.ready_time = events[dep]
            for kernel in kernels:
                launch(kernel, stream)
            if record is not None:
                events[record] = stream.ready_time
        stats = copy(self.stats)
        stats.by_tag = dict(stats.by_tag)
        return stats


class PlanExecutor:
    """Executes :class:`~repro.core.plan.LaunchPlan` DAGs on one device.

    Logical stream 0 maps to the device's default stream; every other
    logical id gets a fresh :class:`~repro.device.stream.Stream` per
    execution (matching the per-run stream sets the eager drivers used),
    created lazily on first use.

    A lowered plan (``plan.program``, a :class:`LaunchProgram`: every
    plan without barriers) is replayed instead of walked, unless a
    tracer is active: the trace spans need the walk.
    """

    def __init__(self, device):
        self.device = device

    def execute(self, plan, batch=None, run_numerics: bool | None = None) -> ExecutionStats:
        """Launch ``plan`` on the device over ``batch`` (any batch of its
        shape); ``run_numerics`` is passed to every
        :meth:`~repro.device.device.Device.launch` (``False`` commits
        the simulated clock only and needs no batch)."""
        from ..core.plan import AuxLaunch, Barrier, KernelLaunch

        if plan.closed:
            raise PlanError("cannot execute a closed plan")
        if plan.device is not self.device:
            raise PlanError("plan was built for a different device")

        device = self.device
        tracer = current_tracer()
        operands = () if run_numerics is False else plan.operands(batch)
        if plan.program is not None and not tracer:
            return plan.program.replay(device, operands, run_numerics)
        streams = {0: device.default_stream}
        nodes = plan.nodes
        # Stamped on every kernel span so trace analysis can attribute
        # stream time per operation in mixed-op (serving) traces.
        plan_op = plan.meta.get("op")
        # A node needs an event only when a *later, other-stream* node
        # depends on it; same-stream order is the queue's job.
        needs_event = {
            dep
            for node in nodes
            for dep in node.deps
            if nodes[dep].stream != node.stream
        }
        events: dict[int, object] = {}
        stats = ExecutionStats()
        used_streams: set[int] = set()

        for node in nodes:
            if isinstance(node, Barrier):
                barrier_from = device.host_time
                scope = node.streams if node.streams is not None else sorted(streams)
                for sid in scope:
                    stream = streams.get(sid)
                    if stream is not None:
                        stream.synchronize()
                device.synchronize()
                stats.barriers += 1
                if tracer:
                    tracer.add_span(
                        "barrier", Track.for_host(device),
                        barrier_from, device.host_time, cat="barrier",
                        args={"node": node.index},
                    )
                continue
            if not isinstance(node, KernelLaunch):  # pragma: no cover - guarded by validate()
                raise PlanError(f"unknown plan node type: {type(node).__name__}")
            stream = streams.get(node.stream)
            if stream is None:
                stream = streams[node.stream] = device.create_stream()
            for dep in node.deps:
                if nodes[dep].stream != node.stream:
                    blocked_from = stream.ready_time
                    stream.wait_event(events[dep])
                    stats.event_waits += 1
                    if tracer and stream.ready_time > blocked_from:
                        tracer.add_span(
                            "wait", Track.for_stream(device, node.stream),
                            blocked_from, stream.ready_time, cat="wait",
                            args={"node": node.index, "on": dep},
                        )
            record = device.launch(node.kernel, stream, run_numerics, operands)
            stats.launches += 1
            used_streams.add(node.stream)
            if isinstance(node, AuxLaunch):
                stats.aux_launches += 1
            stats.by_tag[node.tag] = stats.by_tag.get(node.tag, 0) + 1
            if node.index in needs_event:
                events[node.index] = stream.record_event()
                stats.events_recorded += 1
            if tracer:
                span_args = {
                    "node": node.index,
                    "blocks": record.blocks,
                    "utilization": round(record.schedule.utilization, 4),
                }
                if plan_op is not None:
                    span_args["op"] = plan_op
                tracer.add_span(
                    record.kernel_name, Track.for_stream(device, node.stream),
                    record.start, record.end, cat=node.tag,
                    args=span_args,
                )

        stats.streams_used = len(used_streams)
        return stats


def execute_concurrently(plans, run_numerics: bool | None = None) -> list[ExecutionStats]:
    """Execute one plan per device; returns per-plan stats.

    The plans run one after another on the calling thread, in list
    order.  Each advances only its own device's clock, so in simulated
    time they overlap: the group's makespan is the slowest device, not
    the sum.  Every plan must target a distinct device, and the result
    list matches the order of ``plans``.  Running on the caller's
    thread, shard kernel spans nest under the caller's open span.
    ``run_numerics`` is passed to every launch; no batch is bound (see
    :meth:`PlanExecutor.execute`).

    A failing plan raises :class:`~repro.errors.PlanExecutionError`
    carrying the plan's index and device name (the first failure in
    plan order; the original exception is chained), after every other
    plan has run — no shard is abandoned mid-flight.  With more than
    one plan the error's ``partial`` holds each plan's stats (``None``
    for the failed ones).
    """
    plans = list(plans)
    devices = [id(p.device) for p in plans]
    if len(set(devices)) != len(devices):
        raise PlanError("concurrent execution requires one plan per distinct device")
    results = []
    first_failure = None
    for index, plan in enumerate(plans):
        try:
            results.append(PlanExecutor(plan.device).execute(plan, run_numerics=run_numerics))
        except Exception as exc:
            if first_failure is None:
                first_failure = (index, exc)
            results.append(None)
    if first_failure is not None:
        index, exc = first_failure
        # The error carries the surviving shards' stats so a retrying
        # caller can account work already done (and merge the retry
        # idempotently — see LaunchStats.merge(key=...)).
        raise PlanExecutionError(
            index, getattr(plans[index].device, "name", "device"), exc,
            partial=results if len(plans) > 1 else None,
        ) from exc
    return results
