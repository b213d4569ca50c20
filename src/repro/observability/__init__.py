"""Observability: end-to-end tracing, unified metrics, bottleneck reports.

The measurement layer the ROADMAP's "fast as the hardware allows"
north star requires: before optimizing further we must *see* a single
request's journey (admission → window close → plan → per-stream kernel
execution → response) and a device's stream occupancy.  Three pieces:

* :mod:`repro.observability.trace` — a context-propagated
  :class:`Tracer` spanning both the wall clock (serving machinery) and
  the simulated device clock (kernel timeline), guarded everywhere by
  the falsy :data:`NULL_TRACER` so disabled tracing is free;
* :mod:`repro.observability.registry` — a counter/gauge/histogram/
  summary :class:`MetricsRegistry` with Prometheus text exposition,
  the single sink behind the serving metrics, ``LaunchStats`` and
  ``ExecutionStats``;
* :mod:`repro.observability.export` / :mod:`~repro.observability.report`
  — Chrome-trace (Perfetto) + JSONL serialization and the trace
  analyzer behind ``python -m repro trace-report`` (per-stream
  occupancy, critical-path breakdown, padded-flops waste, top-N
  bottlenecks).

Quickstart::

    from repro.observability import Tracer, activate, write_chrome_trace

    tracer = Tracer()
    with activate(tracer):
        potrf_vbatched_max(device, batch, max_n, options)
    write_chrome_trace(tracer, "out.json")   # open in ui.perfetto.dev

See DESIGN.md §5d for the request → batch → plan → stream-track
architecture.
"""

from .export import (
    load_chrome_trace,
    to_chrome_trace,
    trace_events_from_chrome,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_jsonl,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    Summary,
    latency_summary,
    percentile,
)
from .report import (
    AdaptiveReport,
    GroupReport,
    OpReport,
    TraceAnalysis,
    TrackOccupancy,
    analyze_trace,
    format_trace_report,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    SIM,
    Tracer,
    TraceEvent,
    Track,
    WALL,
    activate,
    current_tracer,
    current_span_id,
    propagating,
)

__all__ = [
    "AdaptiveReport",
    "Counter",
    "Gauge",
    "GroupReport",
    "OpReport",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SIM",
    "Summary",
    "TraceAnalysis",
    "TraceEvent",
    "Tracer",
    "Track",
    "TrackOccupancy",
    "WALL",
    "activate",
    "analyze_trace",
    "current_span_id",
    "current_tracer",
    "format_trace_report",
    "latency_summary",
    "load_chrome_trace",
    "percentile",
    "propagating",
    "to_chrome_trace",
    "trace_events_from_chrome",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_jsonl",
]
