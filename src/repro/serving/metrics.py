"""Serving telemetry: throughput, latency percentiles, batch shapes.

Everything the load generator and the ``serve-bench`` CLI report comes
from here.  Two clocks coexist: the *wall* clock times the serving tier
itself (queueing, windowing), while the *simulated* clock times the
modeled hardware — latency percentiles are tracked on both.

Since the observability subsystem landed, :class:`ServerMetrics` is a
facade over one :class:`~repro.observability.registry.MetricsRegistry`:
request outcomes are a labelled counter, latencies and queue depths are
:class:`~repro.observability.registry.Summary` metrics (the one home of
the percentile code this module used to duplicate), batch sizes feed a
Prometheus-shaped histogram, and :meth:`ServerMetrics.expose` renders
the whole tier — driver :class:`~repro.core.driver.LaunchStats`
included — in the Prometheus text format.  ``percentile`` and
``latency_summary`` are re-exported from the registry module for
backward compatibility.

Batching efficiency is measured in *padded flops*: a launch covering
sizes ``n_i`` with maximum ``m`` is charged ``count * potrf_flops(m)``
padded flops against ``sum(potrf_flops(n_i))`` useful ones — the cost a
fixed-size padded launch would have paid, i.e. how far the batch is
from the homogeneous ideal the paper's implicit sorting chases.  The
gap between a size-aware policy's padded total and FIFO's is the
"padded flops saved" headline in ``BENCH_pr3.json``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..core.driver import LaunchStats
from ..device.device import cost_memo_stats, publish_cost_memo
from ..observability.registry import MetricsRegistry, latency_summary, percentile
from .. import flops as _flops

__all__ = ["BatchRecord", "ServerMetrics", "latency_summary", "percentile"]

_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch, as the metrics remember it.

    ``launch_stats`` keeps the batch's own
    :class:`~repro.core.driver.LaunchStats` (not the server's running
    merge) so a fleet router can account one dispatch attempt exactly
    once when batches are retried across replicas.
    """

    batch_id: int
    size: int
    max_n: int
    useful_flops: float
    padded_flops: float
    sim_elapsed: float
    devices_used: int = 1
    launch_stats: LaunchStats | None = None
    #: Factor operation the batch dispatched (``posv`` batches record
    #: their ``potrf`` factor launch, ``gesv`` their ``getrf``).
    op: str = "potrf"

    @property
    def efficiency(self) -> float:
        """useful/padded — 1.0 means a perfectly homogeneous launch."""
        return self.useful_flops / self.padded_flops if self.padded_flops else 0.0


class ServerMetrics:
    """Registry-backed accumulator for one server's lifetime.

    The worker thread records; any thread may :meth:`snapshot` (the
    JSON-ready dict the bench reports embed) or :meth:`expose` (the
    Prometheus text format).  Raw per-request latencies live in
    registry summaries (serving runs here are bench-sized; a production
    tier would reservoir-sample).  Per-batch :class:`BatchRecord` rows
    are kept as data — exact batch-size histograms and padded-flops
    sums come from them.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        r = self.registry
        self._requests = r.counter(
            "serving_requests_total", "requests by outcome", labels=("outcome",)
        )
        self._sim_busy = r.counter(
            "serving_sim_busy_seconds_total", "simulated device-busy seconds"
        )
        self._flops = r.counter(
            "serving_batch_flops_total", "potrf flops by accounting", labels=("kind",)
        )
        self._op_batches = r.counter(
            "serving_op_batches_total", "dispatched batches by operation", labels=("op",)
        )
        self._op_flops = r.counter(
            "serving_op_flops_total",
            "flops by operation and accounting",
            labels=("op", "kind"),
        )
        self._op_busy = r.counter(
            "serving_op_sim_busy_seconds_total",
            "simulated device-busy seconds by operation",
            labels=("op",),
        )
        self._latency = r.summary(
            "serving_latency_seconds", "request latency by clock", labels=("clock",)
        )
        self._queue_wait = r.summary(
            "serving_queue_wait_seconds", "wall time queued before dispatch"
        )
        self._queue_depth = r.summary(
            "serving_queue_depth", "queue depth sampled at each admission"
        )
        self._batch_sizes = r.histogram(
            "serving_batch_size", "requests per dispatched batch", buckets=_BATCH_BUCKETS
        )
        self.batches: list[BatchRecord] = []
        self.launch_stats = LaunchStats()
        #: Accumulated per-member placement outcomes (heterogeneous
        #: groups only), keyed by member name.
        self.member_stats: dict[str, object] = {}
        self.wall_started: float | None = None
        self.wall_stopped: float | None = None
        #: Devices whose cost memos the snapshot and exposition report
        #: (the owning server sets them).
        self.devices: tuple = ()

    # -- counter views (back-compat attribute API) ----------------------
    def _outcome(self, outcome: str) -> int:
        return int(self._requests.value(outcome=outcome))

    @property
    def submitted(self) -> int:
        return self._outcome("submitted")

    @property
    def rejected(self) -> int:
        return self._outcome("rejected")

    @property
    def completed(self) -> int:
        return self._outcome("completed")

    @property
    def failed(self) -> int:
        return self._outcome("failed")

    @property
    def cancelled(self) -> int:
        return self._outcome("cancelled")

    @property
    def deadline_misses(self) -> int:
        return self._outcome("deadline_missed")

    @property
    def sim_busy(self) -> float:
        return self._sim_busy.value()

    # -- recording hooks (called by the server) -------------------------
    def record_submit(self, queue_depth: int) -> None:
        self._requests.inc(outcome="submitted")
        self._queue_depth.observe(int(queue_depth))

    def record_reject(self) -> None:
        self._requests.inc(outcome="rejected")

    def record_cancelled(self, count: int) -> None:
        self._requests.inc(int(count), outcome="cancelled")

    def record_failure(self, count: int) -> None:
        self._requests.inc(int(count), outcome="failed")

    def record_batch(self, record: BatchRecord, responses, launch_stats=None) -> None:
        """Fold one dispatched batch and its per-request outcomes in."""
        with self._lock:
            self.batches.append(record)
            if launch_stats is not None:
                self.launch_stats.merge(launch_stats)
        self._sim_busy.inc(record.sim_elapsed)
        self._flops.inc(record.useful_flops, kind="useful")
        self._flops.inc(record.padded_flops, kind="padded")
        self._op_batches.inc(op=record.op)
        self._op_flops.inc(record.useful_flops, op=record.op, kind="useful")
        self._op_flops.inc(record.padded_flops, op=record.op, kind="padded")
        self._op_busy.inc(record.sim_elapsed, op=record.op)
        self._batch_sizes.observe(record.size)
        for resp in responses:
            self._requests.inc(outcome="completed")
            self._latency.observe(resp.latency, clock="wall")
            self._latency.observe(resp.latency_sim, clock="sim")
            self._queue_wait.observe(resp.queue_wait)
            if resp.deadline_missed:
                self._requests.inc(outcome="deadline_missed")

    def record_placement(self, member_stats) -> None:
        """Fold a heterogeneous dispatch's per-member outcomes in.

        Each :class:`~repro.device.executor.MemberStats` is accumulated
        under its member name and published to the registry
        (``hetero_chunks_total{member,kind}``, ``hetero_steals_total``,
        ``hetero_matrices_total``, ``hetero_busy_seconds``), so
        placement decisions surface in both :meth:`snapshot` and the
        Prometheus exposition.
        """
        if not member_stats:
            return
        with self._lock:
            for ms in member_stats:
                acc = self.member_stats.get(ms.name)
                if acc is None:
                    self.member_stats[ms.name] = acc = type(ms)(
                        name=ms.name, kind=ms.kind
                    )
                acc.merge(ms)
        for ms in member_stats:
            ms.publish(self.registry)

    # -- derived views ---------------------------------------------------
    @staticmethod
    def padded_flops_for(sizes, precision, op: str = "potrf") -> tuple[float, float]:
        """(useful, padded) flops of one ``op`` launch over ``sizes``.

        The padded total is what a fixed-size batched launch of the
        same operation would have paid — the denominator of the
        batching-efficiency headline, per operation.
        """
        from ..ops.registry import get_op

        sizes = [int(n) for n in sizes]
        matrix_flops = get_op(op).matrix_flops
        useful = sum(matrix_flops(n, precision) for n in sizes)
        padded = len(sizes) * matrix_flops(max(sizes), precision) if sizes else 0.0
        return useful, padded

    def expose(self) -> str:
        """Prometheus text exposition of the whole serving tier."""
        with self._lock:
            self.launch_stats.publish(self.registry, prefix="serving_driver")
        publish_cost_memo(self.registry, self.devices)
        return self.registry.expose()

    def snapshot(self) -> dict:
        """One JSON-ready dict with every headline number."""
        with self._lock:
            batches = list(self.batches)
            launch = self.launch_stats
            placement = {
                name: ms.as_dict() for name, ms in sorted(self.member_stats.items())
            }
            wall = None
            if self.wall_started is not None and self.wall_stopped is not None:
                wall = self.wall_stopped - self.wall_started
        useful = sum(b.useful_flops for b in batches)
        padded = sum(b.padded_flops for b in batches)
        per_op: dict[str, dict] = {}
        for rec in batches:
            row = per_op.setdefault(
                rec.op,
                {"batches": 0, "matrices": 0, "sim_busy_s": 0.0,
                 "useful_flops": 0.0, "padded_flops": 0.0},
            )
            row["batches"] += 1
            row["matrices"] += rec.size
            row["sim_busy_s"] += rec.sim_elapsed
            row["useful_flops"] += rec.useful_flops
            row["padded_flops"] += rec.padded_flops
        for row in per_op.values():
            row["wasted_flops"] = row["padded_flops"] - row["useful_flops"]
            row["efficiency"] = (
                row["useful_flops"] / row["padded_flops"] if row["padded_flops"] else 0.0
            )
            row["mean_batch_size"] = row["matrices"] / row["batches"]
        sim_busy = self.sim_busy
        completed = self.completed
        hist: dict[int, int] = {}
        for rec in batches:
            hist[rec.size] = hist.get(rec.size, 0) + 1
        depths = self._queue_depth.values()
        return {
            "requests": {
                "submitted": self.submitted,
                "completed": completed,
                "rejected": self.rejected,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "deadline_misses": self.deadline_misses,
            },
            "throughput": {
                "batches": len(batches),
                "mean_batch_size": (completed / len(batches)) if batches else 0.0,
                "sim_busy_s": sim_busy,
                "matrices_per_sim_s": (completed / sim_busy) if sim_busy else 0.0,
                "useful_gflops_sim": (useful / sim_busy / 1e9) if sim_busy else 0.0,
                "wall_s": wall,
                "matrices_per_wall_s": (completed / wall) if wall else 0.0,
            },
            "latency_sim_s": self._latency.summary(clock="sim"),
            "latency_wall_s": self._latency.summary(clock="wall"),
            "queue": {
                "max_depth": int(self._queue_depth.max()),
                "mean_depth": float(np.mean(depths)) if depths else 0.0,
                "mean_wait_wall_s": self._queue_wait.mean(),
            },
            "batch_size_histogram": {str(k): v for k, v in sorted(hist.items())},
            "ops": {op: dict(row) for op, row in sorted(per_op.items())},
            "batching": {
                "useful_flops": useful,
                "padded_flops": padded,
                "wasted_flops": padded - useful,
                "efficiency": (useful / padded) if padded else 0.0,
            },
            "plan_cache": {
                "hits": launch.plan_cache_hits,
                "misses": launch.plan_cache_misses,
            },
            "cost_memo": cost_memo_stats(self.devices),
            "launches": {
                "executed": launch.executed_launches,
                "plan_nodes": launch.plan_nodes,
                "batches": launch.batches,
            },
            "placement": placement,
        }
