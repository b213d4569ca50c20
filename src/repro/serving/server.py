"""The batch server: admission, worker loop, dispatch, drain.

``BatchServer`` is the front door the ROADMAP's serving north star asks
for: callers submit one SPD problem at a time and get a future; the
server aggregates compatible requests into
:class:`~repro.core.batch.VBatch` launches with a size-aware window
(:mod:`repro.serving.batcher`), dispatches them over the plan/executor
stack — optionally sharded across a
:class:`~repro.device.topology.DeviceGroup` and re-serving plans from a
shared, thread-safe :class:`~repro.core.plan.PlanCache` — and resolves
each request's future with its own factor/solution slice.

Two driving modes share all of that machinery:

* **asynchronous** — :meth:`start` spawns a worker thread that wakes on
  submissions and window expiry (``max_wait``, deadline pressure, full
  window) — the production shape;
* **synchronous pumping** — :meth:`pump` forms and dispatches one batch
  inline; the closed-loop load generator uses it so benchmark batch
  composition is deterministic under a fixed seed.

Admission control is a bounded queue: ``admission="block"`` applies
backpressure to submitters, ``admission="reject"`` fails fast with
:class:`~repro.errors.AdmissionError`.  :meth:`drain` serves everything
queued then returns; :meth:`shutdown` optionally drains, else cancels
pending futures — mid-stream results stay bit-identical to direct
``potrf_vbatched`` calls either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from ..core.batch import VBatch
from ..core.plan import PlanCache
from ..device.device import Device, cost_memo_stats
from ..device.hetero import HeteroGroup
from ..device.topology import DeviceGroup
from ..errors import AdmissionError, ArgumentError, RequestCancelled, ServingError
from ..extensions.solve import getrs_vbatched, potrs_vbatched
from ..observability.trace import Track, current_tracer
from ..ops.driver import run_op_vbatched
from ..ops.options import OpOptions
from .batcher import Batcher, BatchingPolicy, make_policy
from .metrics import BatchRecord, ServerMetrics
from .request import Request, RequestFuture, Response

__all__ = ["BatchServer"]

_ADMISSIONS = ("block", "reject")
_UNSET = object()


class BatchServer:
    """Aggregates individual factorization requests into vbatched launches.

    Every registered operation is servable (``potrf``/``posv``,
    ``geqrf``, ``getrf``/``gesv``, ``gesvj``); each dispatched batch
    runs one factor op, and the batcher keys compatibility on it.

    Parameters
    ----------
    device:
        Target device; ``None`` allocates a fresh simulated K40c.
        Ignored when ``devices`` is given.
    devices:
        A :class:`~repro.device.topology.DeviceGroup` (or device
        sequence) to shard each dispatched batch across.
    policy:
        Batching policy name or instance (see
        :data:`~repro.serving.batcher.POLICIES`).
    max_batch / max_wait / deadline_margin:
        Window bounds: flush on ``max_batch`` queued requests, once the
        most urgent request has waited ``max_wait`` wall seconds, or
        ``deadline_margin`` before the soonest deadline.
    queue_limit / admission:
        Bounded-queue admission control: ``"block"`` applies
        backpressure (submit waits for space — needs a running worker),
        ``"reject"`` raises :class:`~repro.errors.AdmissionError`.
    options:
        :class:`~repro.ops.options.OpOptions` for every dispatch;
        fields left ``None`` take each batch's op defaults (POTRF and
        QR/LU/SVD batches plan with their own tuned values).
    optimize:
        Plan-optimizer pass level for every dispatch (overrides
        ``options.optimize``); see :mod:`repro.core.optimizer`.
    plan_cache:
        ``"auto"`` (default) creates a private thread-safe
        :class:`~repro.core.plan.PlanCache` of 256 plans; pass an
        instance to share one across servers, or ``None`` to plan every
        dispatch afresh.
    fault_injector:
        Optional :class:`~repro.serving.faults.FaultInjector`; consulted
        once per dispatched batch.  It may raise (a modeled device OOM /
        shard failure — the batch's futures then carry that typed error)
        or return stall seconds added to the batch's simulated service
        time.  ``None`` (the default) costs nothing.
    clock:
        Wall-clock source (monotonic seconds); injectable for tests.
    name:
        Trace process label for this server's queue/dispatch tracks;
        defaults to ``"{policy}:serving"`` so a multi-policy bench
        trace groups each server with its (prefix-named) devices.
    adaptive:
        ``True`` attaches an :class:`~repro.adaptive.OnlineTuner` that
        retunes the serving knobs (policy, window, max-batch, crossover,
        optimize level, partitioner) at batch-window boundaries from
        live metrics.  ``False`` (the default) leaves the dispatch path
        bit-identical to a server without the subsystem.
    tuning_cache:
        Optional :class:`~repro.autotune.TuningCache` the tuner reads
        warm-start winners from and persists converged configs to,
        keyed by (device spec, workload fingerprint).
    adaptive_options:
        Extra keyword arguments for the
        :class:`~repro.adaptive.OnlineTuner` (``epoch_batches``,
        ``seed``, ``converged_after``, ...).
    """

    def __init__(
        self,
        device: Device | None = None,
        *,
        devices=None,
        policy: str | BatchingPolicy = "greedy-window",
        max_batch: int = 32,
        max_wait: float = 2e-3,
        deadline_margin: float = 0.0,
        queue_limit: int = 1024,
        admission: str = "block",
        options: OpOptions | None = None,
        optimize: str | None = None,
        plan_cache: PlanCache | str | None = "auto",
        fault_injector=None,
        clock=time.monotonic,
        name: str | None = None,
        adaptive: bool = False,
        tuning_cache=None,
        adaptive_options: dict | None = None,
    ):
        if admission not in _ADMISSIONS:
            raise ArgumentError(7, f"bad admission {admission!r} (use one of {_ADMISSIONS})")
        if queue_limit <= 0:
            raise ArgumentError(6, f"queue_limit must be positive, got {queue_limit}")
        if devices is not None:
            if isinstance(devices, (DeviceGroup, HeteroGroup)):
                self.group = devices
            else:
                self.group = DeviceGroup(devices)
            self.device = self.group.staging_device
        else:
            self.device = device if device is not None else Device()
            self.group = None
        self.options = options or OpOptions()
        if optimize is not None and optimize != self.options.optimize:
            self.options = replace(self.options, optimize=optimize)
        # 256 plans: on serve-open (3 ops x 128 orders) the hit ratio
        # is 0.55 against 0.14 at 32, for +1.2% peak RSS.
        self.plan_cache = PlanCache(max_plans=256) if plan_cache == "auto" else plan_cache
        self.fault_injector = fault_injector
        self.queue_limit = int(queue_limit)
        self.admission = admission
        self.clock = clock
        self.metrics = ServerMetrics()
        launch_devices = [self.device] + (list(self.group.devices) if self.group is not None else [])
        self.metrics.devices = tuple({id(d): d for d in launch_devices}.values())
        self._batcher = Batcher(
            policy, max_batch=max_batch, max_wait=max_wait, deadline_margin=deadline_margin
        )
        self.name = name if name is not None else f"{self._batcher.policy.name}:serving"
        self.queue_track = Track(self.name, "queue")
        self._batcher.trace_track = self.queue_track
        self._cond = threading.Condition()
        self._dispatch_lock = threading.Lock()
        self._in_flight = 0
        self._accepting = True
        self._stopping = False
        self._worker: threading.Thread | None = None
        self._next_req_id = 0
        self._next_batch_id = 0
        self._cancel_flags: set[int] = set()
        self.metrics.wall_started = self.clock()
        self.tuner = None
        if adaptive:
            # Imported lazily: the adaptive package depends on serving
            # metrics, and a non-adaptive server must not pay for it.
            from ..adaptive import OnlineTuner

            self.tuner = OnlineTuner(
                self, cache=tuning_cache, **(adaptive_options or {})
            )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray | None = None,
        *,
        op: str | None = None,
        deadline: float | None = None,
    ) -> RequestFuture:
        """Queue one problem; returns the future resolving to its
        :class:`~repro.serving.request.Response`.

        ``op`` names any registered operation
        (:data:`~repro.serving.request.OPS`); left ``None`` it infers
        the Cholesky pair — ``"potrf"`` without a right-hand side,
        ``"posv"`` with one — preserving the pre-mixed-op call shape.
        ``matrix`` is never mutated (factors come back in the
        response).  ``deadline`` is relative wall seconds from now; it
        pressures the window to flush early and is counted as missed
        (not dropped) if exceeded.
        """
        if deadline is not None and deadline < 0:
            raise ArgumentError(3, f"deadline cannot be negative, got {deadline}")
        with self._cond:
            if not self._accepting:
                raise AdmissionError("server is not accepting requests")
            if len(self._batcher) >= self.queue_limit:
                if self.admission == "reject":
                    self.metrics.record_reject()
                    raise AdmissionError(
                        f"queue full ({self.queue_limit} pending); request rejected"
                    )
                self._cond.wait_for(
                    lambda: len(self._batcher) < self.queue_limit or not self._accepting
                )
                if not self._accepting:
                    raise AdmissionError("server stopped while request awaited admission")
            now = self.clock()
            request = Request(
                req_id=self._next_req_id,
                op=op if op is not None else ("potrf" if rhs is None else "posv"),
                matrix=matrix,
                rhs=rhs,
                deadline=None if deadline is None else now + deadline,
                arrival=now,
                arrival_sim=self._sim_now(),
            )
            self._next_req_id += 1
            # The future carries its request id so a router can target
            # BatchServer.cancel without holding the Request itself.
            request.future.req_id = request.req_id
            self._batcher.add(request)
            self.metrics.record_submit(len(self._batcher))
            if self.tuner is not None:
                self.tuner.on_admit(request.n, request.op)
            tracer = current_tracer()
            if tracer:
                tracer.instant(
                    "request-admitted", self.queue_track, cat="serving",
                    args={"req_id": request.req_id, "n": request.n,
                          "queue_depth": len(self._batcher)},
                )
                tracer.counter(
                    "queue_depth", self.queue_track, {"pending": len(self._batcher)}
                )
            self._cond.notify_all()
            return request.future

    def submit_many(self, matrices, rhs=None, *, op=None, deadline=None) -> list[RequestFuture]:
        """Submit a sequence of problems; returns their futures in order."""
        rhs = rhs if rhs is not None else [None] * len(matrices)
        if len(rhs) != len(matrices):
            raise ArgumentError(2, f"need {len(matrices)} rhs entries, got {len(rhs)}")
        return [self.submit(m, b, op=op, deadline=deadline) for m, b in zip(matrices, rhs)]

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._batcher)

    def reconfigure(
        self,
        *,
        policy: str | BatchingPolicy | None = None,
        max_batch: int | None = None,
        max_wait: float | None = None,
        crossover_size=_UNSET,
        optimize: str | None = None,
    ) -> None:
        """Retune serving knobs on a live server (thread-safe).

        Changes apply from the *next* formed batch: the batcher queue is
        untouched (policies are stateless selectors over it) and
        dispatch options are swapped wholesale, so an in-flight dispatch
        keeps the options it started with.  This is the application
        point for the :mod:`repro.adaptive` controllers, and is equally
        usable by operators.  ``crossover_size`` accepts ``None`` (the
        per-precision paper default) — leave it at the ``_UNSET``
        sentinel to keep the current value.
        """
        with self._cond:
            if policy is not None:
                new_policy = make_policy(policy)
                if type(new_policy) is not type(self._batcher.policy):
                    self._batcher.policy = new_policy
            if max_batch is not None:
                if max_batch <= 0:
                    raise ArgumentError(2, f"max_batch must be positive, got {max_batch}")
                self._batcher.max_batch = int(max_batch)
            if max_wait is not None:
                if max_wait < 0:
                    raise ArgumentError(3, f"max_wait cannot be negative, got {max_wait}")
                self._batcher.max_wait = float(max_wait)
            if crossover_size is not _UNSET:
                if crossover_size != self.options.crossover_size:
                    self.options = replace(self.options, crossover_size=crossover_size)
            if optimize is not None and optimize != self.options.optimize:
                self.options = replace(self.options, optimize=optimize)
            self._cond.notify_all()

    def cancel(self, req_id: int) -> str:
        """Cancel one queued request; returns the propagation outcome.

        ``"cancelled"`` — the request was still in the batcher queue; it
        is removed and its future resolves with
        :class:`~repro.errors.RequestCancelled`.  ``"in-flight"`` — the
        request already left the queue; a cancel flag is left behind so
        a dispatch that has not yet launched drops it (dispatch-level
        propagation), while a dispatch already running completes and the
        caller discards the result.
        """
        with self._cond:
            req = self._batcher.remove(int(req_id))
            if req is None:
                self._cancel_flags.add(int(req_id))
                return "in-flight"
            self._cond.notify_all()
        req.future.set_exception(RequestCancelled(f"request {req_id} cancelled while queued"))
        self.metrics.record_cancelled(1)
        return "cancelled"

    # ------------------------------------------------------------------
    # worker loop / synchronous pumping
    # ------------------------------------------------------------------
    def start(self) -> "BatchServer":
        """Spawn the asynchronous worker thread (idempotent)."""
        with self._cond:
            if self._stopping:
                raise ServingError("cannot start a stopped server")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._worker_loop, name="repro-batch-server", daemon=True
                )
                self._worker.start()
        return self

    def pump(self, force: bool = False) -> int:
        """Form and dispatch at most one batch inline; returns its size.

        The synchronous twin of the worker loop: the load generator and
        tests call it so batch composition depends only on queue content
        (``force=True`` ignores the time-window triggers entirely).
        """
        with self._cond:
            batch = self._batcher.next_batch(self.clock(), force=force)
            if batch is None:
                return 0
            self._in_flight += 1
            self._cond.notify_all()
        try:
            self._dispatch(batch)
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()
        return len(batch)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._stopping and len(self._batcher) == 0:
                        return
                    now = self.clock()
                    batch = self._batcher.next_batch(now, force=self._stopping)
                    if batch is not None:
                        self._in_flight += 1
                        self._cond.notify_all()
                        break
                    wakeup = self._batcher.next_wakeup(now)
                    self._cond.wait(None if wakeup is None else max(wakeup - now, 1e-4))
            try:
                # Futures are resolved with the error inside _dispatch;
                # the worker itself must survive a failed batch.
                self._dispatch(batch, reraise=False)
            finally:
                with self._cond:
                    self._in_flight -= 1
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Serve everything queued; returns True once idle.

        With a running worker this waits (the worker force-flushes
        nothing — windows still apply — but every window eventually
        expires); without one it pumps inline.  New submissions remain
        admitted during and after a drain.
        """
        if self._worker is None:
            while self.pump(force=True):
                pass
            with self._cond:
                return self._cond.wait_for(lambda: self._idle(), timeout)
        with self._cond:
            return self._cond.wait_for(lambda: self._idle(), timeout)

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the server: close admission, then drain or cancel.

        ``drain=True`` serves every queued request before stopping;
        ``drain=False`` cancels pending futures with
        :class:`~repro.errors.ServingError`.  Idempotent.
        """
        with self._cond:
            self._accepting = False
            cancelled = []
            if not drain:
                while len(self._batcher):
                    cancelled.extend(self._batcher.next_batch(self.clock(), force=True))
                self._cond.notify_all()
        if cancelled:
            for req in cancelled:
                req.future.set_exception(
                    ServingError("server shut down before request was served")
                )
            self.metrics.record_cancelled(len(cancelled))
        if drain:
            self.drain(timeout)
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout)
        self.metrics.wall_stopped = self.clock()

    def __enter__(self) -> "BatchServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def _idle(self) -> bool:
        return len(self._batcher) == 0 and self._in_flight == 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _sim_now(self) -> float:
        """Current simulated time (max over the dispatch members)."""
        if self.group is not None:
            return self.group.sim_now()
        return self.device.host_time

    def _drop_cancelled(self, requests: list[Request]) -> list[Request]:
        """Honor cancel flags set after the batch left the queue.

        Flagged requests are dropped from the batch and resolved with
        :class:`~repro.errors.RequestCancelled` — the last point on the
        batcher → dispatch path where cancellation can still win.  A
        flag whose request already resolved is never consumed; callers
        (the fleet router) check ``future.done()`` before flagging, so
        stale flags stay rare.
        """
        with self._cond:
            if not self._cancel_flags:
                return requests
            dropped = [r for r in requests if r.req_id in self._cancel_flags]
            self._cancel_flags.difference_update(r.req_id for r in dropped)
        for req in dropped:
            req.future.set_exception(
                RequestCancelled(f"request {req.req_id} cancelled before launch")
            )
        if dropped:
            self.metrics.record_cancelled(len(dropped))
            gone = {id(r) for r in dropped}
            return [r for r in requests if id(r) not in gone]
        return requests

    def _dispatch(self, requests: list[Request], reraise: bool = True) -> None:
        """Run one aggregated batch end-to-end and resolve its futures."""
        with self._dispatch_lock:
            requests = self._drop_cancelled(requests)
            if not requests:
                return
            try:
                self._dispatch_inner(requests)
            except Exception as exc:  # resolve futures before propagating
                self.metrics.record_failure(len(requests))
                for req in requests:
                    if not req.future.done():
                        req.future.set_exception(exc)
                if reraise:
                    raise

    @staticmethod
    def _op_extras(op_key: str, reqs: list[Request], result) -> list[dict]:
        """Slice an op's side outputs per request (``Response.extras``).

        Everything is copied: a cached plan re-fills the same output
        storage on the next dispatch, so handing out views would let a
        later batch silently overwrite an earlier response.
        """
        extras: list[dict] = [{} for _ in reqs]
        outputs = result.outputs
        if op_key == "geqrf":
            taus = outputs["taus"]
            for i, r in enumerate(reqs):
                extras[i]["taus"] = np.array(taus[i, : r.n], copy=True)
        elif op_key == "getrf":
            ipivs = outputs["ipivs"]
            for i, r in enumerate(reqs):
                extras[i]["ipivs"] = np.array(ipivs[i, : r.n], copy=True)
        elif op_key == "gesvj":
            sigma = outputs["singular_values"]
            vt = outputs["vt"]
            for i, r in enumerate(reqs):
                extras[i]["singular_values"] = np.array(sigma[i, : r.n], copy=True)
                v = vt.get(i)
                extras[i]["vt"] = None if v is None else np.array(v, copy=True)
        return extras

    def _dispatch_inner(self, requests: list[Request]) -> None:
        tracer = current_tracer()
        with tracer.span(
            "dispatch", Track(self.name, "dispatch"), cat="dispatch"
        ) as span_args:
            dispatched_wall = self.clock()
            dispatched_sim = self._sim_now() if tracer else 0.0
            memo_before = cost_memo_stats(self.metrics.devices) if tracer else None
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            # Largest-first within the launch — the paper's implicit-sorting
            # order, and a canonical size vector for the plan-cache key.
            order = sorted(
                range(len(requests)), key=lambda i: (-requests[i].n, requests[i].req_id)
            )
            reqs = [requests[i] for i in order]
            max_n = max(r.n for r in reqs)

            # Fault-injection point: before any device work, so an
            # injected OOM/shard failure models a launch that never
            # lands, while a stall surcharges the batch's service time.
            stall_s = 0.0
            if self.fault_injector is not None:
                stall_s = self.fault_injector.on_dispatch(
                    self.name, batch_id, [r.n for r in reqs]
                )

            # The batcher guarantees one factor op per batch; dispatch on it.
            op_key = reqs[0].factor_op
            batch = VBatch.from_host(self.device, [r.matrix for r in reqs])
            try:
                result = run_op_vbatched(
                    self.device,
                    batch,
                    max_n,
                    op_key,
                    self.options,
                    devices=self.group,
                    plan_cache=self.plan_cache,
                )
                factors: list[np.ndarray | None] = [None] * len(reqs)
                solutions: list[np.ndarray | None] = [None] * len(reqs)
                solve = None
                if self.device.execute_numerics:
                    factors = batch.download_matrices()
                rhs = [None if r.rhs is None else np.array(r.rhs, copy=True) for r in reqs]
                if any(b is not None for b in rhs):
                    if op_key == "potrf":
                        solve = potrs_vbatched(self.device, batch, rhs)
                    else:  # gesv requests ride getrf batches
                        solve = getrs_vbatched(
                            self.device, batch, result.outputs["ipivs"], rhs
                        )
                    if self.device.execute_numerics:
                        solutions = rhs
                extras = self._op_extras(op_key, reqs, result)
            finally:
                batch.free()

            sim_elapsed = result.elapsed + (solve.elapsed if solve is not None else 0.0)
            sim_elapsed += stall_s
            completed_wall = self.clock()
            completed_sim = self._sim_now()
            useful, padded = ServerMetrics.padded_flops_for(
                [r.n for r in reqs], reqs[0].precision, op=op_key
            )
            responses = []
            for i, req in enumerate(reqs):
                info = int(result.infos[i])
                resp = Response(
                    req_id=req.req_id,
                    op=req.op,
                    info=info,
                    factor=factors[i],
                    # A failed factorization's "solution" is meaningless.
                    solution=solutions[i] if info == 0 else None,
                    extras=extras[i],
                    batch_id=batch_id,
                    batch_size=len(reqs),
                    batch_max_n=max_n,
                    arrival=req.arrival,
                    dispatched=dispatched_wall,
                    completed=completed_wall,
                    latency_sim=completed_sim - req.arrival_sim,
                    service_sim=sim_elapsed,
                    deadline_missed=req.deadline is not None
                    and completed_wall > req.deadline,
                )
                responses.append(resp)
            record = BatchRecord(
                batch_id=batch_id,
                size=len(reqs),
                max_n=max_n,
                useful_flops=useful,
                padded_flops=padded,
                sim_elapsed=sim_elapsed,
                devices_used=result.launch_stats.devices_used,
                launch_stats=result.launch_stats,
                op=op_key,
            )
            self.metrics.record_batch(record, responses, result.launch_stats)
            if result.member_stats is not None:
                self.metrics.record_placement(result.member_stats)
            if self.tuner is not None:
                self.tuner.on_batch([r.n for r in reqs], op_key)
            if tracer:
                memo = cost_memo_stats(self.metrics.devices)
                span_args.update(
                    cost_memo_hits=memo["hits"] - memo_before["hits"],
                    cost_memo_misses=memo["misses"] - memo_before["misses"],
                    batch_id=batch_id,
                    op=op_key,
                    size=len(reqs),
                    max_n=max_n,
                    useful_flops=useful,
                    padded_flops=padded,
                    sim_elapsed=sim_elapsed,
                    queue_wait_sim=sum(
                        max(dispatched_sim - r.arrival_sim, 0.0) for r in reqs
                    ),
                )
            for req, resp in zip(reqs, responses):
                req.future.set_result(resp)
