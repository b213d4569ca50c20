"""Closed-loop load generation and the ``serve-bench`` harness.

The benchmark drives a :class:`~repro.serving.server.BatchServer` in
synchronous pump mode with a *closed loop*: ``concurrency`` requests
are kept outstanding — the queue refills from a fixed-seed synthetic
size stream after every dispatched batch, so batch composition (and
therefore every reported number) is a pure function of the seed, not
of host timing.  Arrival/latency accounting runs on the simulated
clock, where queueing delay means "batches the device served while
this request waited".

Four configurations run over the identical stream:

* ``per-request`` — ``max_batch=1`` dispatch, the no-batching floor;
* ``fifo`` — arrival-order windows (batching, size-blind);
* ``size-bucket`` / ``greedy-window`` — the size-aware policies.

The headline comparisons the PR acceptance criteria ask for —
size-aware throughput vs. per-request dispatch, padded-flops waste vs.
FIFO — come out of :func:`run_serve_bench` ready for
``BENCH_pr3.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.plan import PlanCache
from ..device.device import Device
from ..device.topology import DeviceGroup
from ..distributions import generate_sizes
from ..errors import AdmissionError, ArgumentError, OverloadShedError
from ..observability.trace import activate, current_tracer
from .faults import FaultInjector, RetryPolicy
from .metrics import latency_summary
from .router import DEFAULT_SLOS, FleetRouter, SLOClass
from .server import BatchServer

__all__ = [
    "ARRIVAL_PATTERNS",
    "BENCH_POLICIES",
    "VirtualClock",
    "arrival_trace",
    "check_acceptance",
    "check_fleet_acceptance",
    "closed_loop",
    "open_loop",
    "run_fleet_bench",
    "run_serve_bench",
]

BENCH_POLICIES = ("per-request", "fifo", "size-bucket", "greedy-window")


def closed_loop(server: BatchServer, matrices, concurrency: int = 128) -> list:
    """Pump ``server`` through ``matrices`` with a fixed outstanding set.

    Submits until ``concurrency`` requests are queued, dispatches one
    batch (`force=True`: composition depends only on queue content),
    refills, and repeats until the stream and queue are empty.  Returns
    every request's resolved :class:`~repro.serving.request.Response`
    in submission order.
    """
    if concurrency <= 0:
        raise ArgumentError(3, f"concurrency must be positive, got {concurrency}")
    futures = []
    stream = iter(matrices)
    exhausted = False
    while True:
        while not exhausted and server.queue_depth < concurrency:
            try:
                futures.append(server.submit(next(stream)))
            except StopIteration:
                exhausted = True
        if server.pump(force=True) == 0 and exhausted:
            break
    return [f.result(timeout=60.0) for f in futures]


def _bench_matrices(sizes, dtype=np.float64) -> list[np.ndarray]:
    """Timing-mode payloads: read-only ``n x n`` views of one zero block
    sized by the largest order (the cost model never reads values, and
    a numerics-off device never copies them)."""
    sizes = [int(n) for n in sizes]
    block = np.zeros((max(sizes, default=0),) * 2, dtype=dtype)
    block.flags.writeable = False
    return [block[:n, :n] for n in sizes]


def _make_server(
    policy: str,
    device_count: int,
    max_batch: int,
    max_wait: float,
    optimize: str = "none",
) -> BatchServer:
    """A fresh timing-mode server (own devices, own shared plan cache).

    When a tracer is active the policy name prefixes the device names
    and the server's trace process (``greedy-window:dev0``,
    ``greedy-window:serving``), so one merged bench trace keeps each
    policy's tracks — and the trace report's per-group numbers — apart.
    """
    label = policy
    prefix = f"{policy}:" if current_tracer() else None
    if device_count > 1:
        group = DeviceGroup.simulated(
            device_count, execute_numerics=False, name_prefix=prefix
        )
        target = {"devices": group}
    else:
        target = {
            "device": Device(
                execute_numerics=False,
                name=None if prefix is None else f"{prefix}dev0",
            )
        }
    if policy == "per-request":
        policy, max_batch = "fifo", 1
    return BatchServer(
        policy=policy,
        max_batch=max_batch,
        max_wait=max_wait,
        plan_cache=PlanCache(max_plans=64),
        optimize=optimize,
        name=f"{label}:serving",
        **target,
    )


def run_serve_bench(
    requests: int = 2000,
    max_size: int = 256,
    distribution: str = "uniform",
    seed: int = 0,
    max_batch: int = 32,
    concurrency: int = 128,
    device_count: int = 1,
    policies=BENCH_POLICIES,
    max_wait: float = 2e-3,
    tracer=None,
    optimize: str = "none",
) -> dict:
    """Run every policy over one fixed-seed stream; return the report.

    The report maps policy name to its metrics snapshot and adds the
    acceptance-criteria comparisons: size-aware throughput speedup over
    per-request dispatch (simulated matrices/s) and padded-flops waste
    relative to FIFO.

    ``tracer`` (a :class:`~repro.observability.trace.Tracer`) records
    one merged end-to-end trace across every policy run; each policy's
    tracks carry a ``{policy}:`` process prefix so the trace report can
    break the numbers out per group.
    """
    sizes = generate_sizes(distribution, requests, max_size, seed=seed)
    matrices = _bench_matrices(sizes)
    report: dict = {
        "config": {
            "requests": int(requests),
            "max_size": int(max_size),
            "distribution": distribution,
            "seed": int(seed),
            "max_batch": int(max_batch),
            "concurrency": int(concurrency),
            "device_count": int(device_count),
            "optimize": str(optimize),
            "loop": "closed",
        },
        "policies": {},
    }
    for policy in policies:
        with activate(tracer if tracer is not None else current_tracer()):
            server = _make_server(policy, device_count, max_batch, max_wait, optimize)
            responses = closed_loop(server, matrices, concurrency=concurrency)
            server.shutdown(drain=True)
        snap = server.metrics.snapshot()
        snap["served"] = len(responses)
        report["policies"][policy] = snap

    snaps = report["policies"]
    comparison: dict = {}
    if "per-request" in snaps:
        base = snaps["per-request"]["throughput"]["matrices_per_sim_s"]
        comparison["speedup_vs_per_request"] = {
            name: (snaps[name]["throughput"]["matrices_per_sim_s"] / base if base else 0.0)
            for name in snaps
            if name != "per-request"
        }
    if "fifo" in snaps:
        fifo_waste = snaps["fifo"]["batching"]["wasted_flops"]
        comparison["padded_flops_saved_vs_fifo"] = {
            name: fifo_waste - snaps[name]["batching"]["wasted_flops"]
            for name in snaps
            if name != "fifo"
        }
    report["comparison"] = comparison
    return report


# ----------------------------------------------------------------------
# open-loop arrival traces (the fleet bench's traffic shapes)
# ----------------------------------------------------------------------
ARRIVAL_PATTERNS = ("poisson", "bursty", "diurnal", "heavy-tail")


class VirtualClock:
    """A settable clock shared by router, replicas, and the event loop.

    The open-loop bench advances it explicitly (``clock.t = now``), so
    every latency the fleet records is a pure function of the workload
    seed — host speed and thread timing never leak into the numbers.
    """

    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += float(dt)
        return self.t


def arrival_trace(pattern: str, count: int, rate: float, seed: int = 0) -> np.ndarray:
    """``count`` open-loop arrival instants averaging ``rate`` req/s.

    Unlike the closed loop (which can never overload anything — it waits
    for completions), these traces keep offering work at their own pace:

    * ``"poisson"`` — memoryless arrivals, the M/G/k textbook shape;
    * ``"bursty"`` — an on/off mixture: most gaps come from a fast
      in-burst process, an occasional long off-gap separates bursts
      (flash crowds hitting an inference tier);
    * ``"diurnal"`` — an inhomogeneous Poisson process whose rate swings
      sinusoidally ±80% around the mean (day/night load);
    * ``"heavy-tail"`` — Pareto (``alpha=1.5``) inter-arrivals: long
      quiet stretches punctured by dense clumps.
    """
    if pattern not in ARRIVAL_PATTERNS:
        raise ArgumentError(
            1, f"unknown arrival pattern {pattern!r} (use one of {ARRIVAL_PATTERNS})"
        )
    if count <= 0:
        raise ArgumentError(2, f"count must be positive, got {count}")
    if rate <= 0:
        raise ArgumentError(3, f"rate must be positive, got {rate}")
    rng = np.random.default_rng([seed, hash_pattern(pattern)])
    mean_gap = 1.0 / rate
    if pattern == "poisson":
        gaps = rng.exponential(mean_gap, size=count)
    elif pattern == "bursty":
        burst = rng.exponential(mean_gap / 4.0, size=count)
        idle = rng.exponential(mean_gap * 4.0, size=count)
        off = rng.random(count) < 0.2
        gaps = np.where(off, idle, burst)
    elif pattern == "diurnal":
        # Scale each memoryless gap by the instantaneous rate at the
        # running arrival time (one sine period spans ~count arrivals).
        period = max(count * mean_gap, 1e-9)
        gaps = np.empty(count)
        t = 0.0
        unit = rng.exponential(1.0, size=count)
        for i in range(count):
            local = rate * (1.0 + 0.8 * np.sin(2.0 * np.pi * t / period))
            gaps[i] = unit[i] / max(local, 0.05 * rate)
            t += gaps[i]
    else:  # heavy-tail
        alpha = 1.5
        xm = (alpha - 1.0) / alpha * mean_gap  # Pareto mean = 1/rate
        gaps = xm * (1.0 + rng.pareto(alpha, size=count))
    return np.cumsum(gaps)


def hash_pattern(pattern: str) -> int:
    """Stable small-int stream id per pattern (``hash()`` is salted)."""
    return ARRIVAL_PATTERNS.index(pattern)


# ----------------------------------------------------------------------
# the open-loop event simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One planned arrival of the open-loop workload."""

    at: float
    matrix: np.ndarray
    tenant: str
    slo: str
    deadline: float | None = None
    timeout: float | None = None
    #: The class this request *wanted*; differs from ``slo`` only in the
    #: flat-queue baseline, which serves everything as one class but
    #: still reports latencies per intended class.
    intended: str | None = None


def open_loop(router, workload, clock: VirtualClock, max_events: int | None = None):
    """Drive ``router`` through ``workload`` on the virtual clock.

    A textbook discrete-event loop: repeatedly jump the clock to the
    earlier of the next arrival and the router's next actionable
    instant (:meth:`~repro.serving.router.FleetRouter.next_event_time`
    — a replica freeing up, a retry backoff expiring, an ejection
    cooling down), submit or pump accordingly, and keep going until the
    workload is exhausted *and* the fleet is idle.  Admission refusals
    are part of the result, not exceptions: returns one ``(item,
    ticket-or-AdmissionError)`` pair per work item, in arrival order.
    """
    items = sorted(workload, key=lambda w: w.at)
    pairs = []
    limit = max_events if max_events is not None else 200 * max(len(items), 1)
    i = 0
    now = clock()
    for _ in range(limit):
        next_arrival = items[i].at if i < len(items) else None
        next_fleet = router.next_event_time(now)
        if next_arrival is None and next_fleet is None:
            break
        if next_fleet is None or (next_arrival is not None and next_arrival <= next_fleet):
            now = max(now, next_arrival)
            clock.t = now
            item = items[i]
            i += 1
            try:
                ticket = router.submit(
                    item.matrix,
                    tenant=item.tenant,
                    slo=item.slo,
                    deadline=item.deadline,
                    timeout=item.timeout,
                )
                pairs.append((item, ticket))
            except AdmissionError as exc:
                pairs.append((item, exc))
            continue
        progressed_to = max(now, next_fleet)
        clock.t = progressed_to
        if router.pump(progressed_to) == 0 and progressed_to <= now:
            # Nothing moved and time did not either: nudge the clock so
            # a pathological schedule cannot spin the loop in place.
            progressed_to = now + 1e-4
            clock.t = progressed_to
        now = progressed_to
    else:
        raise ArgumentError(4, f"open_loop exceeded {limit} events without draining")
    return pairs


def check_acceptance(report: dict, min_speedup: float = 2.0) -> list[str]:
    """The PR's acceptance assertions; returns failure messages (empty = pass)."""
    failures = []
    snaps = report["policies"]
    comparison = report.get("comparison", {})
    for name in ("size-bucket", "greedy-window"):
        if name not in snaps:
            continue
        speedup = comparison.get("speedup_vs_per_request", {}).get(name, 0.0)
        if speedup < min_speedup:
            failures.append(
                f"{name}: {speedup:.2f}x over per-request dispatch (need >= {min_speedup}x)"
            )
        saved = comparison.get("padded_flops_saved_vs_fifo", {}).get(name, 0.0)
        if "fifo" in snaps and saved <= 0:
            failures.append(f"{name}: no padded-flops saved vs fifo ({saved:.3g})")
    return failures


# ----------------------------------------------------------------------
# the ``fleet-bench`` harness
# ----------------------------------------------------------------------
FLEET_MIX = (
    # (slo, share) — interactive must fit inside one fleet's capacity at
    # 2x total overload, so the priority classes have something to
    # protect and the shed classes something to give up.
    ("interactive", 0.30),
    ("batch", 0.30),
    ("best-effort", 0.40),
)
FLEET_TENANTS = ("acme", "globex", "initech")


def _fleet_workload(
    requests: int,
    max_size: int,
    distribution: str,
    pattern: str,
    rate: float,
    seed: int,
    flat: str | None = None,
) -> list[WorkItem]:
    """One deterministic open-loop workload: arrivals from the trace,
    sizes from the bench distribution, class/tenant from a seeded mix.

    ``flat`` collapses every request into the single named class while
    keeping the *intended* class on the item — the no-fleet baseline
    serves one undifferentiated queue, yet the report still breaks its
    latencies out by what each request wanted to be.
    """
    sizes = generate_sizes(distribution, requests, max_size, seed=seed)
    arrivals = arrival_trace(pattern, requests, rate, seed=seed)
    rng = np.random.default_rng([seed, 97])
    shares = np.array([s for _, s in FLEET_MIX])
    classes = rng.choice(len(FLEET_MIX), size=requests, p=shares / shares.sum())
    tenants = rng.choice(len(FLEET_TENANTS), size=requests)
    matrices = _bench_matrices(sizes)
    items = []
    for i in range(requests):
        intended = FLEET_MIX[int(classes[i])][0]
        items.append(
            WorkItem(
                at=float(arrivals[i]),
                matrix=matrices[i],
                tenant=FLEET_TENANTS[int(tenants[i])],
                slo=flat if flat is not None else intended,
                intended=intended,
            )
        )
    return items


def _measure_capacity(
    max_size: int, distribution: str, seed: int, max_batch: int, cal_requests: int = 160
) -> float:
    """Measured single-replica service rate (matrices per simulated
    second), from a short closed-loop run — the yardstick the bench
    scales its offered load against."""
    server = BatchServer(
        device=Device(execute_numerics=False),
        policy="greedy-window",
        max_batch=max_batch,
        plan_cache=PlanCache(max_plans=64),
    )
    sizes = generate_sizes(distribution, cal_requests, max_size, seed=seed + 17)
    closed_loop(server, _bench_matrices(sizes), concurrency=2 * max_batch)
    server.shutdown(drain=True)
    return server.metrics.snapshot()["throughput"]["matrices_per_sim_s"]


def _summarize_pairs(pairs) -> dict:
    """Per-intended-class outcome counts and completed-request latency
    summaries, plus the lost-request tally the chaos gate keys on."""
    per: dict[str, dict] = {}
    hung = 0
    for item, out in pairs:
        cls = item.intended or item.slo
        rec = per.setdefault(
            cls,
            {
                "offered": 0,
                "admitted": 0,
                "completed": 0,
                "failed": 0,
                "cancelled": 0,
                "shed": 0,
                "rejected_other": 0,
                "_latencies": [],
            },
        )
        rec["offered"] += 1
        if isinstance(out, AdmissionError):
            if isinstance(out, OverloadShedError):
                rec["shed"] += 1
            else:
                rec["rejected_other"] += 1
            continue
        rec["admitted"] += 1
        if out.outcome is None:
            hung += 1
        else:
            rec[out.outcome] += 1
        if out.outcome == "completed":
            rec["_latencies"].append(out.completed_at - out.arrival)
    classes = {}
    for cls, rec in sorted(per.items()):
        lat = rec.pop("_latencies")
        admitted = rec["admitted"]
        classes[cls] = {
            **rec,
            "completion_ratio": (rec["completed"] / admitted) if admitted else 1.0,
            "latency_s": latency_summary(lat),
        }
    offered = sum(c["offered"] for c in classes.values())
    shed = sum(c["shed"] for c in classes.values())
    return {
        "classes": classes,
        "offered": offered,
        "shed": shed,
        "shed_ratio": (shed / offered) if offered else 0.0,
        "hung": hung,
    }


def _run_fleet_case(
    items,
    *,
    replica_count: int,
    max_batch: int,
    max_wait: float,
    queue_limit: int,
    injector: FaultInjector | None,
    retry: RetryPolicy,
    shed: bool,
    admission: bool,
    slos=None,
    default_slo: str = "batch",
    adaptive: bool = False,
    tuning_cache=None,
    adaptive_options: dict | None = None,
) -> dict:
    """Stand up one fleet, run one workload to completion, report."""
    clock = VirtualClock()
    router = FleetRouter(
        replica_count=replica_count,
        max_batch=max_batch,
        max_wait=max_wait,
        queue_limit=queue_limit,
        slos=slos,
        default_slo=default_slo,
        retry=retry,
        fault_injector=injector,
        shed=shed,
        admission_control=admission,
        execute_numerics=False,
        # The default breaker cooldown (250 ms) is wall-clock scale; on
        # the virtual clock a batch takes tens of microseconds, so an
        # ejection must cost milliseconds, not the whole run.
        health_cooldown=5e-3,
        clock=clock,
        adaptive=adaptive,
        tuning_cache=tuning_cache,
        adaptive_options=adaptive_options,
    )
    router.set_tenant("acme", weight=2.0)
    pairs = open_loop(router, items, clock)
    router.shutdown(drain=True)
    summary = _summarize_pairs(pairs)
    summary["makespan_sim_s"] = clock()
    summary["fleet"] = router.snapshot()
    if adaptive:
        summary["tuners"] = {
            r.name: r.server.tuner.snapshot()
            for r in router.replicas
            if r.server.tuner is not None
        }
    if injector is not None:
        summary["faults"] = {
            "injected": injector.injected(),
            "by_kind": {k: injector.injected(k) for k in sorted(set(e.kind for e in injector.events))},
        }
    return summary


def run_fleet_bench(
    requests: int = 600,
    max_size: int = 128,
    distribution: str = "uniform",
    seed: int = 0,
    replica_count: int = 3,
    max_batch: int = 16,
    max_wait: float = 2e-3,
    pattern: str = "bursty",
    overload: float = 2.0,
    load: float = 0.5,
    queue_limit: int = 128,
    fault_rate: float = 0.08,
    fault_seed: int | None = None,
    faults: str = "seeded",
    max_retries: int = 3,
    smoke: bool = False,
    adaptive: bool = False,
    tuning_cache_path: str | None = None,
) -> dict:
    """The ``fleet-bench``: graceful overload vs. single-server collapse.

    Three runs over workloads drawn from the same seeded generator:

    * ``unloaded`` — the full fleet at ``load`` (default 0.5x) of its
      measured capacity, faults off: the interactive p95 yardstick;
    * ``overload`` — the same fleet at ``overload`` (default 2x)
      capacity with seeded faults injected: the run that must *degrade
      gracefully* (shed best-effort, keep interactive p95 within 3x of
      unloaded, lose nothing it admitted);
    * ``baseline`` — one replica, one undifferentiated class, no
      shedding, no deadline admission, no retries, offered the identical
      overload trace: the collapse the fleet machinery exists to avoid.

    ``faults`` is ``"seeded"`` (deterministic
    :class:`~repro.serving.faults.FaultInjector` on the overload run) or
    ``"off"``.  ``smoke=True`` shrinks the workload for CI.  The report
    carries its own acceptance verdict
    (:func:`check_fleet_acceptance`); ``BENCH_pr6.json`` is this dict.

    ``adaptive=True`` attaches online tuners to every replica in the
    unloaded and overload runs (the collapse baseline stays static — it
    exists to show the *untuned* single server).  All replicas share one
    :class:`~repro.autotune.TuningCache` at ``tuning_cache_path`` (a
    temp file when unset), so the overload fleet warm-starts from
    whatever the unloaded fleet converged onto.
    """
    if faults not in ("seeded", "off"):
        raise ArgumentError(13, f"faults must be 'seeded' or 'off', got {faults!r}")
    if smoke:
        requests = min(requests, 240)
        max_size = min(max_size, 96)
    tuning_cache = None
    adaptive_options = None
    if adaptive:
        import tempfile

        from ..autotune import TuningCache

        if tuning_cache_path is None:
            tuning_cache_path = os.path.join(
                tempfile.mkdtemp(prefix="fleet-adaptive-"), "tuning_cache.json"
            )
        tuning_cache = TuningCache(path=tuning_cache_path)
        # Open-loop fleet traces are short; the compact knob set and a
        # fast cadence give the tuners a chance to act within one run.
        adaptive_options = {
            "knobs": "compact",
            "epoch_batches": 6,
            "converged_after": 2,
        }
    per_replica = _measure_capacity(max_size, distribution, seed, max_batch)
    fleet_rate = per_replica * replica_count
    # Backoff on the virtual clock: a couple of batch service times, not
    # the wall-clock default — a retried request should rejoin the fight
    # while its peers are still in the same traffic burst.
    retry = RetryPolicy(max_retries=max_retries, backoff=2e-4)
    report: dict = {
        "config": {
            "requests": int(requests),
            "max_size": int(max_size),
            "distribution": distribution,
            "seed": int(seed),
            "replica_count": int(replica_count),
            "max_batch": int(max_batch),
            "pattern": pattern,
            "overload": float(overload),
            "load": float(load),
            "queue_limit": int(queue_limit),
            "fault_rate": float(fault_rate) if faults == "seeded" else 0.0,
            "faults": faults,
            "max_retries": int(max_retries),
            "smoke": bool(smoke),
            "adaptive": bool(adaptive),
            "interactive_target_p95_s": DEFAULT_SLOS["interactive"].target_p95,
            "loop": "open",
        },
        "capacity": {
            "per_replica_matrices_per_sim_s": per_replica,
            "fleet_matrices_per_sim_s": fleet_rate,
        },
        "runs": {},
    }
    report["runs"]["unloaded"] = _run_fleet_case(
        _fleet_workload(requests, max_size, distribution, pattern, load * fleet_rate, seed),
        replica_count=replica_count,
        max_batch=max_batch,
        max_wait=max_wait,
        queue_limit=queue_limit,
        injector=None,
        retry=retry,
        shed=True,
        admission=True,
        adaptive=adaptive,
        tuning_cache=tuning_cache,
        adaptive_options=adaptive_options,
    )
    injector = (
        FaultInjector(rate=fault_rate, seed=seed if fault_seed is None else fault_seed)
        if faults == "seeded"
        else None
    )
    report["runs"]["overload"] = _run_fleet_case(
        _fleet_workload(
            requests, max_size, distribution, pattern, overload * fleet_rate, seed
        ),
        replica_count=replica_count,
        max_batch=max_batch,
        max_wait=max_wait,
        queue_limit=queue_limit,
        injector=injector,
        retry=retry,
        shed=True,
        admission=True,
        adaptive=adaptive,
        tuning_cache=tuning_cache,
        adaptive_options=adaptive_options,
    )
    report["runs"]["baseline"] = _run_fleet_case(
        _fleet_workload(
            requests, max_size, distribution, pattern, overload * fleet_rate, seed,
            flat="flat",
        ),
        replica_count=1,
        max_batch=max_batch,
        max_wait=max_wait,
        queue_limit=100 * queue_limit,
        injector=None,
        retry=RetryPolicy(max_retries=0),
        shed=False,
        admission=False,
        slos={"flat": SLOClass("flat", 0)},
        default_slo="flat",
    )
    # The smoke workload is too short for the flat queue to build a 10x
    # backlog; it still must visibly collapse (5x) while the recorded
    # full-scale BENCH artifact holds the strict bound.
    failures = check_fleet_acceptance(report, collapse_factor=5.0 if smoke else 10.0)
    report["acceptance"] = {"pass": not failures, "failures": failures}
    return report


def check_fleet_acceptance(
    report: dict,
    max_degradation: float = 3.0,
    min_completion: float = 0.99,
    collapse_factor: float = 10.0,
) -> list[str]:
    """The chaos/overload gate; returns failure messages (empty = pass).

    Asserts the PR's acceptance criteria: no admitted request is ever
    lost (zero hangs, everything terminal), the overloaded fleet sheds
    best-effort while holding interactive p95 within ``max_degradation``
    of unloaded *and* under the class SLO target, at least
    ``min_completion`` of admitted interactive requests complete, seeded
    faults actually fired, and the no-fleet baseline really collapses
    (``collapse_factor`` x unloaded p95) — otherwise the fleet layer is
    not buying anything.
    """
    failures = []
    runs = report["runs"]
    for name, run in runs.items():
        if run["hung"]:
            failures.append(f"{name}: {run['hung']} requests never reached a terminal state")
    unloaded = runs["unloaded"]["classes"].get("interactive", {})
    overloaded = runs["overload"]["classes"].get("interactive", {})
    base_p95 = max(unloaded.get("latency_s", {}).get("p95", 0.0), 1e-9)
    over_p95 = overloaded.get("latency_s", {}).get("p95", 0.0)
    if over_p95 > max_degradation * base_p95:
        failures.append(
            f"overload: interactive p95 {over_p95 * 1e3:.3f} ms exceeds "
            f"{max_degradation}x unloaded ({base_p95 * 1e3:.3f} ms)"
        )
    target = report["config"].get("interactive_target_p95_s")
    if target is not None and over_p95 > target:
        failures.append(
            f"overload: interactive p95 {over_p95 * 1e3:.3f} ms over the "
            f"{target * 1e3:.0f} ms SLO target"
        )
    ratio = overloaded.get("completion_ratio", 0.0)
    if ratio < min_completion:
        failures.append(
            f"overload: only {ratio:.4f} of admitted interactive requests completed "
            f"(need >= {min_completion})"
        )
    if runs["overload"]["shed_ratio"] <= 0.0:
        failures.append("overload: shed ratio is 0 — overload protection never engaged")
    if report["config"]["faults"] == "seeded":
        injected = runs["overload"].get("faults", {}).get("injected", 0)
        if injected <= 0:
            failures.append("overload: fault injection was requested but nothing fired")
        fleet_counts = runs["overload"]["fleet"]["requests"]
        admitted = fleet_counts["admitted"]
        terminal = sum(
            cls["outcomes"].get(o, 0)
            for cls in runs["overload"]["fleet"]["classes"].values()
            for o in ("completed", "failed", "cancelled")
        )
        if terminal != admitted:
            failures.append(
                f"overload: {admitted} admitted but only {terminal} reached a terminal "
                "state — an injected fault lost a request"
            )
    flat = runs["baseline"]["classes"].get("interactive", {})
    flat_p95 = flat.get("latency_s", {}).get("p95", 0.0)
    if flat_p95 <= collapse_factor * base_p95 and flat.get("completion_ratio", 1.0) >= 1.0:
        failures.append(
            f"baseline: single-server p95 {flat_p95 * 1e3:.3f} ms did not collapse "
            f"(need > {collapse_factor}x unloaded {base_p95 * 1e3:.3f} ms) — "
            "the fleet comparison is vacuous"
        )
    return failures
