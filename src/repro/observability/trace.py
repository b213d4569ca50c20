"""Context-propagated tracing over the serving → plan → execute stack.

The paper's performance story (Figs. 3–9) is a story about *where time
goes* — idle thread blocks, padded flops, kernel overlap.  This module
is the recording half of making that visible end-to-end: a
:class:`Tracer` collects structured :class:`TraceEvent` records from
every layer (request admission, batch window close, plan-cache traffic,
per-kernel execution on each logical stream, event waits, barriers) and
:mod:`repro.observability.export` turns them into Chrome-trace /
Perfetto JSON and a JSONL event log.

Two clocks coexist, mirroring the serving metrics:

* **wall** spans time the host-side machinery itself (queueing,
  windowing, planning) via :meth:`Tracer.span`, a context manager that
  also maintains the span parent stack;
* **sim** spans replay the simulated device timeline via
  :meth:`Tracer.add_span` with explicit timestamps taken from the
  device (``LaunchRecord.start/end``, ``stream.ready_time``), so the
  trace shows exactly what the cost model computed — recording never
  touches the simulated clock.

Instrumented call sites fetch the ambient tracer with
:func:`current_tracer` (a :mod:`contextvars` lookup) and guard with a
plain truthiness check: the default :data:`NULL_TRACER` is falsy and
every one of its methods is a no-op, so the disabled-tracing fast path
costs one context-variable read per instrumented operation and the
bit-identical timing tests keep pinning.

Cross-thread propagation uses :func:`propagating` to capture the
submitting thread's context — active tracer *and* current span — so
spans recorded on a worker thread nest under the submitting span.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SIM",
    "Tracer",
    "TraceEvent",
    "Track",
    "WALL",
    "activate",
    "current_tracer",
    "current_span_id",
    "propagating",
]

WALL = "wall"
SIM = "sim"

SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"


@dataclass(frozen=True)
class Track:
    """Where an event renders: one (process, thread) row in the viewer.

    ``process`` groups related rows (a device, a server); ``thread`` is
    one row inside the group (a logical stream, the serving queue).
    The exporter assigns stable Chrome-trace pid/tid numbers per track.
    """

    process: str
    thread: str = "main"

    @classmethod
    def for_stream(cls, device, stream_id: int) -> "Track":
        """The track of one logical stream on one device."""
        return cls(getattr(device, "name", "device"), f"stream{int(stream_id)}")

    @classmethod
    def for_host(cls, device) -> "Track":
        """The device's host-interaction row (barriers, syncs)."""
        return cls(getattr(device, "name", "device"), "host")


@dataclass
class TraceEvent:
    """One recorded span / instant / counter sample.

    ``start`` is in the event's ``clock`` domain (seconds); spans also
    carry ``end``.  ``span_id`` / ``parent_id`` encode nesting — the
    parent is whatever wall span was open on the recording (or
    propagated) context, regardless of the event's own clock domain.
    """

    phase: str
    name: str
    cat: str
    track: Track
    start: float
    end: float | None = None
    clock: str = WALL
    span_id: int = 0
    parent_id: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class NullTracer:
    """The disabled-tracing fast path: falsy, and every method no-ops.

    Call sites write ``tr = current_tracer()`` once, then guard hot
    work with ``if tr:`` — with the null tracer that is a single falsy
    branch, so tracing costs nothing when off.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    @contextmanager
    def span(self, name, track=None, cat="span", args=None):
        yield {}

    def add_span(self, name, track, start, end, **kwargs) -> None:
        return None

    def instant(self, name, track, **kwargs) -> None:
        return None

    def counter(self, name, track, values, **kwargs) -> None:
        return None


NULL_TRACER = NullTracer()

_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_tracer", default=NULL_TRACER
)
_SPAN: contextvars.ContextVar = contextvars.ContextVar("repro_span", default=None)


def current_tracer():
    """The context's active tracer (:data:`NULL_TRACER` when disabled)."""
    return _ACTIVE.get()


def current_span_id() -> int | None:
    """The id of the innermost open wall span on this context."""
    return _SPAN.get()


@contextmanager
def activate(tracer):
    """Make ``tracer`` the ambient tracer for the enclosed block.

    The binding is a :mod:`contextvars` set, so it follows the logical
    context — including into threads entered via :func:`propagating`.
    """
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def propagating(fn):
    """Wrap ``fn`` so it runs under the *submitting* thread's context.

    ``ThreadPoolExecutor`` workers do not inherit context variables;
    wrapping the submitted callable keeps the active tracer and the
    open span visible inside the pool thread (each wrapper owns a
    private context copy, so concurrent workers do not collide).
    """
    ctx = contextvars.copy_context()

    def run(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return run


class Tracer:
    """Thread-safe collector of :class:`TraceEvent` records.

    Recording is append-only under one lock; the simulated clocks are
    never read or written by the tracer itself, so an active tracer
    cannot perturb modeled timing.  ``wall_clock`` is injectable for
    deterministic tests.
    """

    enabled = True

    def __init__(self, wall_clock=time.perf_counter):
        self.wall_clock = wall_clock
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    # -- recording -------------------------------------------------------
    def _record(self, event: TraceEvent) -> TraceEvent:
        with self._lock:
            self.events.append(event)
        return event

    @contextmanager
    def span(self, name: str, track: Track, cat: str = "span", args: dict | None = None):
        """Open a wall-clock span; yields a dict merged into ``args``.

        The span becomes the parent of everything recorded inside the
        block (on this context), nesting the trace without any explicit
        plumbing through call signatures.
        """
        span_id = next(self._ids)
        parent = _SPAN.get()
        start = self.wall_clock()
        token = _SPAN.set(span_id)
        extra: dict = {}
        try:
            yield extra
        finally:
            _SPAN.reset(token)
            merged = dict(args or {})
            merged.update(extra)
            self._record(
                TraceEvent(
                    SPAN, name, cat, track, start, self.wall_clock(),
                    clock=WALL, span_id=span_id, parent_id=parent, args=merged,
                )
            )

    def add_span(
        self,
        name: str,
        track: Track,
        start: float,
        end: float,
        *,
        cat: str = "span",
        clock: str = SIM,
        args: dict | None = None,
    ) -> TraceEvent:
        """Record a span with explicit timestamps (simulated-clock path)."""
        return self._record(
            TraceEvent(
                SPAN, name, cat, track, float(start), float(end),
                clock=clock, span_id=next(self._ids), parent_id=_SPAN.get(),
                args=dict(args or {}),
            )
        )

    def instant(
        self,
        name: str,
        track: Track,
        *,
        ts: float | None = None,
        cat: str = "instant",
        clock: str = WALL,
        args: dict | None = None,
    ) -> TraceEvent:
        """Record a zero-duration marker (admission, cache hit, ...)."""
        when = self.wall_clock() if ts is None else float(ts)
        return self._record(
            TraceEvent(
                INSTANT, name, cat, track, when,
                clock=clock, span_id=next(self._ids), parent_id=_SPAN.get(),
                args=dict(args or {}),
            )
        )

    def counter(
        self,
        name: str,
        track: Track,
        values: dict,
        *,
        ts: float | None = None,
        clock: str = WALL,
    ) -> TraceEvent:
        """Record a counter sample (rendered as a stacked area row)."""
        when = self.wall_clock() if ts is None else float(ts)
        return self._record(
            TraceEvent(
                COUNTER, name, "counter", track, when,
                clock=clock, span_id=next(self._ids),
                args={k: float(v) for k, v in values.items()},
            )
        )

    # -- inspection ------------------------------------------------------
    def snapshot(self) -> list[TraceEvent]:
        """A consistent copy of the event list (any thread)."""
        with self._lock:
            return list(self.events)

    def spans(self, cat: str | None = None) -> list[TraceEvent]:
        """Recorded spans, optionally filtered by category."""
        return [
            e for e in self.snapshot()
            if e.phase == SPAN and (cat is None or e.cat == cat)
        ]
