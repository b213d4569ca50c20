"""Wall-clock spans around the entry points of each ``repro`` layer.

The benchmark's traced runs install these wrappers from outside the
program: every target below is replaced, for the duration of an
:meth:`Recorder.installed` block, by a function that records one span
``(id, parent id, layer, start, end)`` per call.  Spans are appended to
a per-thread list in memory; the parent link comes from a context
variable, so a span opened on a worker thread that runs under a copied
context (``repro``'s sharded executor does this) still names its parent
on the submitting thread.  Nothing is written until :meth:`Recorder.dump`.

A layer's *self time* is each span's duration minus the part of that
interval its child spans cover (children on any thread, overlapping
children counted once).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import importlib
import itertools
import json
import pkgutil
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: (layer, module, attribute path) of every wrapped entry point.  A
#: function is also replaced wherever another ``repro`` module imported
#: it by name.
TARGETS = (
    ("device.cost_model", "repro.device.device", "Device.prepare_launch"),
    ("device.executor", "repro.device.executor", "PlanExecutor.execute"),
    ("device.topology", "repro.device.topology", "run_potrf_sharded"),
    ("device.topology", "repro.ops.driver", "run_op_sharded"),
    ("device.topology", "repro.device.executor", "execute_concurrently"),
    ("core.driver", "repro.core.driver", "run_potrf_vbatched"),
    ("core.driver", "repro.ops.driver", "run_op_vbatched"),
    ("core.plan", "repro.core.driver", "plan_potrf"),
    ("core.plan", "repro.ops.driver", "plan_op"),
    ("core.plan_cache", "repro.core.plan", "PlanCache.get_or_build"),
    ("core.batch", "repro.core.batch", "VBatch.from_host"),
    ("core.batch", "repro.core.batch", "VBatch.download_matrices"),
    ("serving.submit", "repro.serving.server", "BatchServer.submit"),
    ("serving.batcher", "repro.serving.batcher", "Batcher.next_batch"),
    ("serving.dispatch", "repro.serving.server", "BatchServer._dispatch"),
    ("serving.metrics", "repro.serving.metrics", "ServerMetrics.record_batch"),
    ("extensions.solve", "repro.extensions.solve", "potrs_vbatched"),
    ("extensions.solve", "repro.extensions.solve", "getrs_vbatched"),
    ("apps.hmatrix", "repro.apps.hmatrix", "compress_kernel_matrix"),
)

#: ``run_numerics`` of the extension kernels, by the operation they serve.
#: Every kernel class of ``repro.kernels`` maps to ``kernels.numerics``.
EXTENSION_KERNELS = {
    "PanelGeqr2Kernel": "extensions.geqrf",
    "LarfbUpdateGemmKernel": "extensions.geqrf",
    "PanelGetf2Kernel": "extensions.getrf",
    "RowSwapKernel": "extensions.getrf",
    "LeftTrsmKernel": "extensions.getrf",
    "JacobiSweepKernel": "extensions.gesvj",
    "SvdFinalizeKernel": "extensions.gesvj",
    "_SvdResetKernel": "extensions.gesvj",
    "FusedPotrsKernel": "extensions.solve",
    "FusedGetrsKernel": "extensions.solve",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _import_all_repro() -> None:
    """Import every ``repro`` module, so name-imported aliases exist
    before wrapping and no module binds a wrapper after it."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Sum of self time per layer over ``(id, parent, layer, start, end)``."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, _, layer, start, end in spans:
        kids = children.get(sid)
        covered = union_length(kids, start, end) if kids else 0.0
        out[layer] += (end - start) - covered
    return dict(out)


class Recorder:
    """Collects spans and the per-layer observations of one traced run."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("e2e_span", default=0)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[str, list]] = []
        self._plan: list[tuple] | None = None
        self.missing: list[str] = []
        # Observations the per-layer metrics are computed from.
        self.cost_results: list[tuple] = []
        self.executor_launches = 0
        self.plan_calls = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.batches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _buffer(self) -> list:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = []
            with self._lock:
                self._buffers.append((threading.current_thread().name, buf))
        return buf

    @property
    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for _, buf in self._buffers for s in buf]

    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` recording one ``layer`` span per call.

        ``before(args)`` runs inside the span ahead of the call and may
        return replacement arguments; ``after(result, args)`` runs
        after the span closes.  Both must stay cheap.
        """
        current, ids, clock, buffer = self._current, self._ids, time.perf_counter, self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                buffer().append((sid, parent, layer, start, end))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def _hooks(self, module: str, path: str) -> dict:
        """Observation hooks of the few targets that feed counters."""
        if path == "Device.prepare_launch":
            return {"after": self._after_prepare}
        if path == "PlanExecutor.execute":
            return {"after": self._after_execute}
        if path in ("plan_potrf", "plan_op"):
            return {"before": self._count_plan}
        if path == "PlanCache.get_or_build":
            return {"before": self._before_lookup, "after": self._after_lookup}
        if path == "ServerMetrics.record_batch":
            return {"before": self._before_record}
        return {}

    # Observations are kept as tuples of plain numbers and strings, which
    # the garbage collector stops tracking; tuples holding objects stay
    # tracked, and tens of thousands of them slow the traced program.
    def _after_prepare(self, result, args):
        occ, schedule, total_blocks = result
        kernel = args[1]
        self.cost_results.append((
            type(kernel).__name__, str(kernel.precision), occ.concurrent_blocks, total_blocks,
            schedule.makespan, schedule.total_block_time,
        ))

    # Shard threads call these concurrently; counters take the lock.
    def _after_execute(self, result, args):
        with self._lock:
            self.executor_launches += result.launches

    def _count_plan(self, args):
        with self._lock:
            self.plan_calls += 1
        return args

    def _before_lookup(self, args):
        cache, key, batch, build = args
        self._local.built = False
        timed = self.wrap("core.plan", build)

        def flagged():
            self._local.built = True
            return timed()

        return (cache, key, batch, flagged)

    def _after_lookup(self, result, args):
        with self._lock:
            self.cache_lookups += 1
            self.cache_hits += not self._local.built

    def _before_record(self, args):
        _, record, responses = args[:3]
        waits = tuple((r.dispatched - r.arrival) * 1e3 for r in responses)
        self.batches.append((record.op, record.size, record.useful_flops, waits))
        return args

    def _targets(self):
        for layer, module, path in TARGETS:
            try:
                owner, attr = _resolve(module, path)
                fn = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            hooks = self._hooks(module, path)
            if isinstance(fn, classmethod):
                wrapper = classmethod(self.wrap(layer, fn.__func__, **hooks))
            else:
                wrapper = self.wrap(layer, fn, **hooks)
            yield owner, attr, fn, wrapper
        for name, module in list(sys.modules.items()):
            if not name.startswith(("repro.kernels", "repro.extensions")) or module is None:
                continue
            for cls in vars(module).values():
                if not isinstance(cls, type) or cls.__module__ != name:
                    continue
                fn = vars(cls).get("run_numerics")
                if fn is None:
                    continue
                if name.startswith("repro.kernels"):
                    layer = "kernels.numerics"
                else:
                    layer = EXTENSION_KERNELS.get(cls.__name__, "extensions.other")
                yield cls, "run_numerics", fn, self.wrap(layer, fn)

    def _patch_plan(self) -> list[tuple]:
        """``(owner, attribute, original, wrapper)`` for every target and
        every by-name alias of a wrapped function, built once."""
        if self._plan is None:
            _import_all_repro()
            modules = [m for n, m in sys.modules.items() if n.startswith("repro") and m]
            self._plan = []
            for owner, attr, fn, wrapper in self._targets():
                self._plan.append((owner, attr, fn, wrapper))
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for alias, value in vars(module).items():
                        if value is fn and module is not owner:
                            self._plan.append((module, alias, fn, wrapper))
        return self._plan

    @contextlib.contextmanager
    def installed(self):
        """Spans are recorded inside this block only; outside it the
        program runs its own, unwrapped code."""
        plan = self._patch_plan()
        for owner, attr, _, wrapper in plan:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in reversed(plan):
                setattr(owner, attr, fn)

    # -- results --------------------------------------------------------
    def repeat_ratio(self) -> float:
        """Share of cost-model calls whose (kernel class, precision)
        and result (block slots, total blocks, makespan, block time) had
        been seen before: launches a content-keyed memo could answer.
        The cost model is deterministic, so equal inputs give equal
        results; different inputs giving bit-equal results are taken as
        repeats too, which needs equal float sums and is rare."""
        seen = set()
        repeats = 0
        for key in self.cost_results:
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.cost_results) if self.cost_results else 0.0

    def uncovered(self, intervals) -> float:
        """Time inside ``intervals`` (the benchmark's measured units)
        covered by no span on any thread."""
        roots = [(s[3], s[4]) for s in self.spans if s[1] == 0]
        return sum((hi - lo) - union_length(roots, lo, hi) for lo, hi in intervals)

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON."""
        with self._lock:
            threads = {name: list(buf) for name, buf in self._buffers}
        doc = {
            "fields": ["id", "parent", "layer", "start_s", "end_s"],
            "threads": threads,
            "missing_targets": self.missing,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, *, wall_s: float, intervals, potrf_flops: float = 0.0,
                  lapack_s: float = 0.0) -> dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json).

    ``potrf_flops`` is the POTRF work the caller factorized directly
    (batches served through ``BatchServer`` are added from its records);
    ``lapack_s`` is stacked LAPACK on the same POTRF inputs.
    """
    spans = rec.spans
    self_s = self_times(spans)
    calls = defaultdict(int)
    for span in spans:
        calls[span[2]] += 1
    sizes = [size for _, size, _, _ in rec.batches]
    waits = [wait for *_, batch_waits in rec.batches for wait in batch_waits]
    potrf_flops += sum(flops for op, _, flops, _ in rec.batches if op == "potrf")
    numerics_s = self_s.get("kernels.numerics", 0.0)
    lookups = rec.cache_lookups
    return {
        "device.cost_model.self_s": self_s.get("device.cost_model", 0.0),
        "device.cost_model.calls": calls["device.cost_model"],
        "device.cost_model.repeat_ratio": rec.repeat_ratio(),
        "device.executor.self_s": self_s.get("device.executor", 0.0),
        "device.executor.launches": rec.executor_launches,
        "device.topology.self_s": self_s.get("device.topology", 0.0),
        "core.driver.self_s": self_s.get("core.driver", 0.0),
        "core.plan.self_s": self_s.get("core.plan", 0.0),
        "core.plan.builds": rec.plan_calls - rec.cache_hits,
        "core.plan_cache.hit_ratio": rec.cache_hits / lookups if lookups else 0.0,
        "core.batch.transfer_s": self_s.get("core.batch", 0.0),
        "serving.submit.self_s": self_s.get("serving.submit", 0.0),
        "serving.batcher.self_s": self_s.get("serving.batcher", 0.0),
        "serving.dispatch.self_s": self_s.get("serving.dispatch", 0.0),
        "serving.metrics.self_s": self_s.get("serving.metrics", 0.0),
        "serving.batch_size.mean": statistics.fmean(sizes) if sizes else 0.0,
        "serving.queue_wait_ms.p50": percentile(waits, 50),
        "serving.queue_wait_ms.p99": percentile(waits, 99),
        "kernels.numerics.self_s": numerics_s,
        "kernels.numerics.gflops": potrf_flops / numerics_s / 1e9 if numerics_s else 0.0,
        "kernels.lapack_ratio": numerics_s / lapack_s if lapack_s else 0.0,
        "extensions.geqrf.self_s": self_s.get("extensions.geqrf", 0.0),
        "extensions.getrf.self_s": self_s.get("extensions.getrf", 0.0),
        "extensions.gesvj.self_s": self_s.get("extensions.gesvj", 0.0),
        "extensions.solve.self_s": self_s.get("extensions.solve", 0.0),
        "apps.hmatrix.self_s": self_s.get("apps.hmatrix", 0.0),
        "other.self_s": rec.uncovered(intervals),
        "trace.wall_s": wall_s,
    }
