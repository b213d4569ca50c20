"""Trace-driven bottleneck analysis: where did the time actually go?

Consumes the structured events a :class:`~repro.observability.trace.Tracer`
recorded (or a Chrome-trace JSON re-loaded from disk) and computes the
quantities the paper's performance story turns on:

* **per-stream occupancy** — busy fraction of every device stream track
  over the device's active window: the visible form of the SM-idle
  problem implicit sorting fights (Figs. 5–6);
* **critical-path breakdown** — simulated queue wait vs. wall-clock
  plan building vs. simulated execution per serving group, the
  request's journey decomposed;
* **padded-flops waste per batch** — useful vs. padded flops of every
  dispatched batch, aggregated per group; matches the serving metrics'
  ``batching`` block (the ``BENCH_pr3.json`` headline numbers) because
  both read the same per-batch accounting;
* **cache hit rates** — plan-cache hits/misses per group, and the
  device cost memo's hit ratio from the per-dispatch counts on each
  dispatch span;
* **top-N bottlenecks** — kernel/wait/barrier names ranked by total
  simulated time;
* **per-operation breakdown** — mixed-op traces (PR 8) attribute
  stream time, padded-flops waste and top kernels to each operation:
  every plan stamps ``meta["op"]`` onto its kernel spans and every
  dispatch span carries its batch's op, so one shared-queue trace
  decomposes into per-op POTRF/QR/LU/SVD accounts;
* **adaptive decisions** — traces of servers running the online tuner
  (PR 9) carry ``cat="adaptive"`` instants at every decision epoch:
  per server, the report counts controller actions by kind
  (explore/exploit/hold/rollback/converged), fingerprint drifts and
  cache warm-starts, and shows the final converged knob settings.

``python -m repro trace-report out.json`` prints all the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import INSTANT, SPAN, SIM, TraceEvent

__all__ = [
    "AdaptiveReport",
    "GroupReport",
    "OpReport",
    "TraceAnalysis",
    "TrackOccupancy",
    "analyze_trace",
    "format_trace_report",
]


def _group_of(process: str) -> str:
    """Serving group of a track process: ``greedy-window:dev0`` and
    ``greedy-window:serving`` both belong to ``greedy-window``."""
    return process.split(":", 1)[0] if ":" in process else ""


@dataclass(frozen=True)
class TrackOccupancy:
    """Busy fraction of one stream track over its device's window."""

    process: str
    thread: str
    spans: int
    busy: float
    window: float

    @property
    def occupancy(self) -> float:
        return self.busy / self.window if self.window > 0 else 0.0


@dataclass
class GroupReport:
    """Per-serving-group aggregates (one group per bench policy)."""

    group: str
    batches: int = 0
    requests: int = 0
    useful_flops: float = 0.0
    padded_flops: float = 0.0
    queue_wait_sim: float = 0.0
    execute_sim: float = 0.0
    plan_build_wall: float = 0.0
    plan_builds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def efficiency(self) -> float:
        return self.useful_flops / self.padded_flops if self.padded_flops else 0.0

    @property
    def waste_pct(self) -> float:
        """Padded-flops waste percentage — the BENCH_pr3 headline."""
        return 100.0 * (1.0 - self.efficiency) if self.padded_flops else 0.0

    @property
    def memo_hit_ratio(self) -> float:
        """Share of launch-cost lookups the device cost memo served."""
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def critical_path(self) -> dict:
        """Where a request's life went, by phase (seconds)."""
        return {
            "queue_wait_sim_s": self.queue_wait_sim,
            "plan_build_wall_s": self.plan_build_wall,
            "execute_sim_s": self.execute_sim,
        }


@dataclass
class OpReport:
    """Per-operation aggregates of a mixed-op trace (PR 8).

    ``stream_busy`` sums the op's kernel spans on device stream tracks
    (simulated seconds); ``stream_window`` is the total stream-seconds
    available across every stream track in the trace, so
    :attr:`occupancy` reads "fraction of the trace's stream capacity
    this operation kept busy".  ``kernels`` maps kernel name to
    ``(calls, total_sim_seconds)`` for the per-op top-kernels table.
    """

    op: str
    batches: int = 0
    requests: int = 0
    useful_flops: float = 0.0
    padded_flops: float = 0.0
    execute_sim: float = 0.0
    stream_busy: float = 0.0
    stream_window: float = 0.0
    kernels: dict = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        return self.useful_flops / self.padded_flops if self.padded_flops else 0.0

    @property
    def waste_pct(self) -> float:
        return 100.0 * (1.0 - self.efficiency) if self.padded_flops else 0.0

    @property
    def occupancy(self) -> float:
        return self.stream_busy / self.stream_window if self.stream_window > 0 else 0.0

    def top_kernels(self, top: int = 5) -> list[tuple]:
        """``(name, calls, total)`` rows, heaviest first."""
        ranked = sorted(self.kernels.items(), key=lambda kv: -kv[1][1])
        return [(name, calls, total) for name, (calls, total) in ranked[:top]]


@dataclass
class AdaptiveReport:
    """One tuner-equipped server's decision history (PR 9 traces).

    Aggregated from the ``cat="adaptive"`` instants the
    :class:`~repro.adaptive.OnlineTuner` emits on its server's
    ``adaptive`` track: ``actions`` counts ``adaptive-decision`` events
    by controller action, ``final_knobs`` is the knob map of the last
    warm-start or convergence event (the settings the server ended on).
    """

    server: str
    decisions: int = 0
    actions: dict = field(default_factory=dict)  # action -> count
    explore_starts: int = 0
    drifts: int = 0
    warm_starts: int = 0
    convergences: int = 0
    final_knobs: dict = field(default_factory=dict)


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze_trace` extracts from one trace."""

    events: int = 0
    occupancy: list[TrackOccupancy] = field(default_factory=list)
    groups: dict[str, GroupReport] = field(default_factory=dict)
    ops: dict[str, OpReport] = field(default_factory=dict)
    adaptive: dict[str, AdaptiveReport] = field(default_factory=dict)
    bottlenecks: list[tuple] = field(default_factory=list)  # (name, cat, calls, total)

    def group(self, name: str) -> GroupReport:
        return self.groups[name]

    def waste_by_group(self) -> dict[str, float]:
        """group -> padded-waste %, the acceptance-criteria view."""
        return {g: r.waste_pct for g, r in sorted(self.groups.items())}

    def waste_by_op(self) -> dict[str, float]:
        """op -> padded-waste %, the mixed-op acceptance view."""
        return {op: r.waste_pct for op, r in sorted(self.ops.items())}


def analyze_trace(events, top: int = 10) -> TraceAnalysis:
    """Aggregate a trace (Tracer, event list, or Chrome dict) into a
    :class:`TraceAnalysis`."""
    if hasattr(events, "snapshot"):
        events = events.snapshot()
    elif isinstance(events, dict):
        from .export import trace_events_from_chrome

        events = trace_events_from_chrome(events)
    events = [e for e in events if isinstance(e, TraceEvent)]
    analysis = TraceAnalysis(events=len(events))

    # -- per-stream occupancy (simulated spans on device tracks) --------
    windows: dict[str, tuple[float, float]] = {}
    busy: dict[tuple[str, str], tuple[int, float]] = {}

    def op_report(op: str) -> OpReport:
        if op not in analysis.ops:
            analysis.ops[op] = OpReport(op)
        return analysis.ops[op]

    for ev in events:
        if ev.phase != SPAN or ev.clock != SIM:
            continue
        lo, hi = windows.get(ev.track.process, (ev.start, ev.end))
        windows[ev.track.process] = (min(lo, ev.start), max(hi, ev.end))
        if ev.track.thread.startswith("stream"):
            n, t = busy.get((ev.track.process, ev.track.thread), (0, 0.0))
            busy[(ev.track.process, ev.track.thread)] = (n + 1, t + ev.duration)
            op = ev.args.get("op")
            if op:
                rep = op_report(str(op))
                rep.stream_busy += ev.duration
                calls, total = rep.kernels.get(ev.name, (0, 0.0))
                rep.kernels[ev.name] = (calls + 1, total + ev.duration)
    for (process, thread), (spans, total) in sorted(busy.items()):
        lo, hi = windows[process]
        analysis.occupancy.append(
            TrackOccupancy(process, thread, spans, total, hi - lo)
        )
    stream_window = sum(
        windows[process][1] - windows[process][0] for process, _ in busy
    )
    for rep in analysis.ops.values():
        rep.stream_window = stream_window

    # -- per-group aggregates -------------------------------------------
    def group_for(ev) -> GroupReport:
        g = _group_of(ev.track.process)
        if g not in analysis.groups:
            analysis.groups[g] = GroupReport(g)
        return analysis.groups[g]

    hot: dict[tuple[str, str], tuple[int, float]] = {}
    for ev in events:
        if ev.phase == SPAN and ev.cat == "dispatch":
            rep = group_for(ev)
            rep.batches += 1
            rep.requests += int(ev.args.get("size", 0))
            rep.useful_flops += float(ev.args.get("useful_flops", 0.0))
            rep.padded_flops += float(ev.args.get("padded_flops", 0.0))
            rep.queue_wait_sim += float(ev.args.get("queue_wait_sim", 0.0))
            rep.execute_sim += float(ev.args.get("sim_elapsed", 0.0))
            rep.memo_hits += int(ev.args.get("cost_memo_hits", 0))
            rep.memo_misses += int(ev.args.get("cost_memo_misses", 0))
            op = ev.args.get("op")
            if op:
                orep = op_report(str(op))
                orep.batches += 1
                orep.requests += int(ev.args.get("size", 0))
                orep.useful_flops += float(ev.args.get("useful_flops", 0.0))
                orep.padded_flops += float(ev.args.get("padded_flops", 0.0))
                orep.execute_sim += float(ev.args.get("sim_elapsed", 0.0))
        elif ev.phase == SPAN and ev.cat == "plan":
            rep = group_for(ev)
            rep.plan_builds += 1
            rep.plan_build_wall += ev.duration
        elif ev.phase == INSTANT and ev.cat == "plan-cache":
            rep = group_for(ev)
            if ev.name == "plan-cache-hit":
                rep.cache_hits += 1
            elif ev.name == "plan-cache-miss":
                rep.cache_misses += 1
            elif ev.name == "plan-cache-evict":
                rep.cache_evictions += int(ev.args.get("count", 1))
        elif ev.phase == INSTANT and ev.cat == "adaptive":
            server = ev.track.process
            arep = analysis.adaptive.get(server)
            if arep is None:
                arep = analysis.adaptive[server] = AdaptiveReport(server)
            if ev.name == "adaptive-decision":
                arep.decisions += 1
                action = str(ev.args.get("action", "?"))
                arep.actions[action] = arep.actions.get(action, 0) + 1
            elif ev.name == "adaptive-explore-start":
                arep.explore_starts += 1
            elif ev.name == "adaptive-drift":
                arep.drifts += 1
            elif ev.name == "adaptive-warm-start":
                arep.warm_starts += 1
                arep.final_knobs = dict(ev.args.get("knobs", {}))
            elif ev.name == "adaptive-converged":
                arep.convergences += 1
                arep.final_knobs = dict(ev.args.get("knobs", {}))
        if ev.phase == SPAN and ev.clock == SIM:
            n, t = hot.get((ev.name, ev.cat), (0, 0.0))
            hot[(ev.name, ev.cat)] = (n + 1, t + ev.duration)

    ranked = sorted(hot.items(), key=lambda kv: -kv[1][1])
    analysis.bottlenecks = [
        (name, cat, calls, total) for (name, cat), (calls, total) in ranked[:top]
    ]
    return analysis


def format_trace_report(analysis: TraceAnalysis, top: int = 10) -> str:
    """Render the full bottleneck report as aligned text tables."""
    # Imported here: repro.bench pulls in the figure harness (and through
    # it the whole driver stack), which itself imports observability.
    from ..bench.report import format_table

    blocks: list[str] = [f"trace: {analysis.events} events"]

    if analysis.occupancy:
        rows = [
            [o.process, o.thread, o.spans, o.busy * 1e3, o.occupancy * 100]
            for o in analysis.occupancy
        ]
        blocks.append(
            "== stream occupancy ==\n"
            + format_table(["device", "stream", "spans", "busy_ms", "occupancy_%"], rows)
        )

    groups = [g for g in sorted(analysis.groups.values(), key=lambda r: r.group)
              if g.batches or g.plan_builds or g.cache_hits or g.cache_misses]
    if groups:
        rows = [
            [
                g.group or "-", g.batches, g.requests,
                g.queue_wait_sim * 1e3, g.plan_build_wall * 1e3, g.execute_sim * 1e3,
            ]
            for g in groups
        ]
        blocks.append(
            "== critical path (per group) ==\n"
            + format_table(
                ["group", "batches", "requests", "queue_wait_sim_ms",
                 "plan_build_wall_ms", "execute_sim_ms"],
                rows,
            )
        )
        rows = [
            [
                g.group or "-", g.useful_flops / 1e9, g.padded_flops / 1e9,
                g.waste_pct, g.cache_hits, g.cache_misses, g.cache_evictions,
                g.memo_hit_ratio * 100,
            ]
            for g in groups
        ]
        blocks.append(
            "== padded flops + plan cache + cost memo (per group) ==\n"
            + format_table(
                ["group", "useful_Gflop", "padded_Gflop", "waste_%",
                 "cache_hits", "cache_misses", "evictions", "memo_hit_%"],
                rows,
            )
        )

    ops = [analysis.ops[op] for op in sorted(analysis.ops)]
    if ops:
        rows = [
            [
                o.op, o.batches, o.requests, o.useful_flops / 1e9,
                o.padded_flops / 1e9, o.waste_pct, o.stream_busy * 1e3,
                o.occupancy * 100,
            ]
            for o in ops
        ]
        blocks.append(
            "== per-operation breakdown ==\n"
            + format_table(
                ["op", "batches", "requests", "useful_Gflop", "padded_Gflop",
                 "waste_%", "stream_busy_ms", "occupancy_%"],
                rows,
            )
        )
        rows = [
            [o.op, name, calls, total * 1e3]
            for o in ops
            for name, calls, total in o.top_kernels()
        ]
        if rows:
            blocks.append(
                "== top kernels (per operation) ==\n"
                + format_table(["op", "kernel", "calls", "total_ms"], rows)
            )

    if analysis.adaptive:
        servers = [analysis.adaptive[s] for s in sorted(analysis.adaptive)]
        rows = [
            [
                a.server, a.decisions,
                a.actions.get("explore", 0), a.actions.get("exploit", 0),
                a.actions.get("hold", 0), a.actions.get("rollback", 0),
                a.drifts, a.warm_starts, a.convergences,
            ]
            for a in servers
        ]
        blocks.append(
            "== adaptive decisions (per server) ==\n"
            + format_table(
                ["server", "decisions", "explore", "exploit", "hold",
                 "rollback", "drifts", "warm_starts", "converged"],
                rows,
            )
        )
        finals = [
            f"{a.server}: "
            + ", ".join(f"{k}={v}" for k, v in sorted(a.final_knobs.items()))
            for a in servers
            if a.final_knobs
        ]
        if finals:
            blocks.append("final knob settings:\n" + "\n".join(finals))

    if analysis.bottlenecks:
        grand = sum(t for _, _, _, t in analysis.bottlenecks) or 1.0
        rows = [
            [name, cat, calls, total * 1e3, 100.0 * total / grand]
            for name, cat, calls, total in analysis.bottlenecks[:top]
        ]
        blocks.append(
            f"== top {min(top, len(rows))} bottlenecks (simulated time) ==\n"
            + format_table(["name", "cat", "calls", "total_ms", "share_%"], rows)
        )
    return "\n\n".join(blocks)
