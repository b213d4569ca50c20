"""Replicated serving: fleet replicas and fleet-wide telemetry.

One :class:`~repro.serving.server.BatchServer` is a single failure
domain with a single device group's worth of throughput.  The fleet
layer replicates it: :func:`build_fleet` stands up N :class:`Replica`
wrappers — each owning its *own*
:class:`~repro.device.topology.DeviceGroup` (failure isolation: a
replica's modeled device fault never touches its peers) while all
replicas share one thread-safe :class:`~repro.core.plan.PlanCache`
(plan keys include ``id(device)``, so sharing is safe and a router that
re-dispatches a familiar size vector to any replica still hits).

:class:`Replica` also carries what the router needs that the server
does not know about itself: a :class:`~repro.serving.faults.ReplicaHealth`
circuit breaker, the virtual-clock availability model used by the
deterministic pump loop (``busy_until``), and the ticket assignment
table used to sweep completions back out of the replica's futures.

:class:`FleetMetrics` is the fleet-wide registry-backed scoreboard:
per-class/per-tenant request outcomes, shed and retry counters,
latency summaries per SLO class, and a launch-stats accumulator that
uses the keyed idempotent merge (``LaunchStats.merge(key=...)``) so a
batch retried on another replica is counted as one logical batch no
matter how many attempts it took.
"""

from __future__ import annotations

import threading

from ..core.driver import LaunchStats
from ..core.plan import PlanCache
from ..device.executor import ExecutionStats
from ..device.topology import DeviceGroup
from ..errors import ArgumentError
from ..observability.registry import MetricsRegistry
from ..ops.options import OpOptions
from .faults import ReplicaHealth
from .server import BatchServer

__all__ = ["FleetMetrics", "Replica", "build_fleet"]


class Replica:
    """One replicated batch server, as the router sees it."""

    def __init__(self, name: str, server: BatchServer, health: ReplicaHealth | None = None):
        self.name = str(name)
        self.server = server
        self.health = health if health is not None else ReplicaHealth()
        #: Virtual-clock instant this replica's device pipeline is free
        #: again (sync pump mode); the threaded mode ignores it.
        self.busy_until = float("-inf")
        #: Replica req_id -> in-flight ticket, for the completion sweep.
        self.assigned: dict[int, object] = {}
        self.dispatches = 0

    @property
    def outstanding(self) -> int:
        return len(self.assigned)

    def free_at(self, now: float) -> bool:
        return self.health.healthy(now) and self.busy_until <= now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.name!r}, outstanding={self.outstanding})"


def build_fleet(
    replica_count: int,
    *,
    devices_per_replica: int = 1,
    members: str | None = None,
    placement: str = "size-stratified",
    policy: str = "greedy-window",
    max_batch: int = 32,
    max_wait: float = 2e-3,
    options: OpOptions | None = None,
    optimize: str | None = None,
    plan_cache: PlanCache | None = None,
    fault_injector=None,
    execute_numerics: bool = True,
    clock=None,
    health_threshold: int = 2,
    health_cooldown: float = 0.25,
    name: str = "fleet",
    adaptive: bool = False,
    tuning_cache=None,
    adaptive_options: dict | None = None,
) -> list[Replica]:
    """Stand up ``replica_count`` replicas for a router to own.

    Each replica gets a fresh simulated
    :class:`~repro.device.topology.DeviceGroup` of
    ``devices_per_replica`` devices (``devices_per_replica=1`` keeps a
    single device per replica) and its own admission queue; one shared
    thread-safe plan cache serves them all.  ``members`` (a
    :func:`~repro.device.hetero.parse_members` spec string, e.g.
    ``"k40c*2+cpu"``) gives every replica its own *heterogeneous*
    :class:`~repro.device.hetero.HeteroGroup` instead — replicas may
    mix unequal GPUs and the CPU backend, and each dispatch's placement
    decisions land in the replica server's metrics.  ``fault_injector``
    is installed on every replica — the injector itself keys its
    schedule on the replica name, so replicas fault independently.

    ``adaptive=True`` attaches an :class:`~repro.adaptive.OnlineTuner`
    to every replica server; a shared ``tuning_cache`` lets the first
    replica to converge on a workload warm-start its peers (and the
    next process).  Each replica's tuner gets a distinct seed so
    exploration orders decorrelate across the fleet.
    """
    if replica_count <= 0:
        raise ArgumentError(1, f"replica_count must be positive, got {replica_count}")
    if devices_per_replica <= 0:
        raise ArgumentError(
            2, f"devices_per_replica must be positive, got {devices_per_replica}"
        )
    cache = plan_cache if plan_cache is not None else PlanCache(max_plans=128)
    replicas = []
    for i in range(replica_count):
        rname = f"{name}:r{i}"
        kwargs = {}
        if clock is not None:
            kwargs["clock"] = clock
        if members is not None:
            from ..device.hetero import HeteroGroup

            kwargs["devices"] = HeteroGroup.simulated(
                members,
                execute_numerics=execute_numerics,
                placement=placement,
                name_prefix=f"{rname}:",
            )
        elif devices_per_replica > 1:
            kwargs["devices"] = DeviceGroup.simulated(
                devices_per_replica,
                execute_numerics=execute_numerics,
                name_prefix=f"{rname}:",
            )
        else:
            from ..device.device import Device

            kwargs["device"] = Device(execute_numerics=execute_numerics, name=f"{rname}:dev0")
        if adaptive:
            per_replica = dict(adaptive_options or {})
            per_replica["seed"] = per_replica.get("seed", 0) + i
            kwargs.update(
                adaptive=True,
                tuning_cache=tuning_cache,
                adaptive_options=per_replica,
            )
        server = BatchServer(
            policy=policy,
            max_batch=max_batch,
            max_wait=max_wait,
            options=options,
            optimize=optimize,
            plan_cache=cache,
            fault_injector=fault_injector,
            name=rname,
            **kwargs,
        )
        health = ReplicaHealth(
            failure_threshold=health_threshold, cooldown=health_cooldown
        )
        replicas.append(Replica(rname, server, health=health))
    return replicas


class FleetMetrics:
    """Registry-backed scoreboard for one router's lifetime.

    Outcome vocabulary for ``fleet_requests_total{tenant,slo,outcome}``:

    * ``submitted`` / ``admitted`` — offered vs. accepted at the door;
    * ``shed`` / ``rejected_quota`` / ``rejected_deadline`` /
      ``rejected_full`` — the typed refusals;
    * ``completed`` / ``failed`` / ``cancelled`` — terminal states of
      admitted requests (``failed`` = retries exhausted; a per-matrix
      numerical info code still counts as ``completed`` — the fleet
      delivered an answer).

    Launch accounting: :attr:`launch_stats` merges one
    :class:`~repro.core.driver.LaunchStats` per dispatch attempt under
    the attempt's logical-batch key, so retried batches fold
    idempotently; :attr:`salvaged` accumulates the
    :class:`~repro.device.executor.ExecutionStats` of shards that
    finished inside otherwise-failed attempts (work done, then retried
    elsewhere).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        r = self.registry
        self._requests = r.counter(
            "fleet_requests_total", "requests by tenant/slo/outcome",
            labels=("tenant", "slo", "outcome"),
        )
        self._retries = r.counter(
            "fleet_retries_total", "re-dispatch attempts by fault kind", labels=("kind",)
        )
        self._ejections = r.counter(
            "fleet_replica_ejections_total", "health ejections by replica",
            labels=("replica",),
        )
        self._dispatch_faults = r.counter(
            "fleet_dispatch_faults_total", "failed dispatch attempts by error type",
            labels=("error",),
        )
        self._latency = r.summary(
            "fleet_latency_seconds", "admitted-request latency by slo class",
            labels=("slo",),
        )
        self._queue_depth = r.summary(
            "fleet_router_depth", "router backlog sampled at each admission"
        )
        self._deadline = r.counter(
            "fleet_deadline_misses_total", "served past deadline by slo", labels=("slo",)
        )
        self.launch_stats = LaunchStats(devices_used=0)
        self.salvaged = ExecutionStats()

    # -- recording ------------------------------------------------------
    def record_outcome(self, tenant: str, slo: str, outcome: str, count: int = 1) -> None:
        self._requests.inc(count, tenant=tenant, slo=slo, outcome=outcome)

    def record_admit(self, tenant: str, slo: str, depth: int) -> None:
        self.record_outcome(tenant, slo, "admitted")
        self._queue_depth.observe(int(depth))

    def record_retry(self, kind: str) -> None:
        self._retries.inc(kind=kind)

    def record_ejection(self, replica: str) -> None:
        self._ejections.inc(replica=replica)

    def record_dispatch_fault(self, error: BaseException) -> None:
        self._dispatch_faults.inc(error=type(error).__name__)

    def record_completion(
        self, tenant: str, slo: str, latency: float, deadline_missed: bool
    ) -> None:
        self.record_outcome(tenant, slo, "completed")
        self._latency.observe(max(float(latency), 0.0), slo=slo)
        if deadline_missed:
            self._deadline.inc(slo=slo)

    def record_attempt(self, key, launch_stats: LaunchStats | None) -> None:
        """Fold one dispatch attempt's stats in under its batch key."""
        if launch_stats is None:
            return
        with self._lock:
            self.launch_stats.merge(launch_stats, key=key)

    def record_salvaged(self, exec_stats) -> None:
        """Fold surviving-shard stats from a failed attempt's
        :class:`~repro.errors.PlanExecutionError`."""
        with self._lock:
            for es in exec_stats:
                if es is not None:
                    self.salvaged.merge(es)

    # -- views ----------------------------------------------------------
    def outcome(self, outcome: str, tenant: str | None = None, slo: str | None = None) -> int:
        """Total for one outcome, optionally filtered by tenant/slo."""
        total = 0.0
        for labels, value in self._requests.items():
            got = dict(labels)
            if got.get("outcome") != outcome:
                continue
            if tenant is not None and got.get("tenant") != tenant:
                continue
            if slo is not None and got.get("slo") != slo:
                continue
            total += value
        return int(total)

    def latency_summary(self, slo: str) -> dict:
        return self._latency.summary(slo=slo)

    def snapshot(self) -> dict:
        """One JSON-ready dict with the fleet's headline numbers."""
        outcomes: dict[str, dict] = {}
        tenants: dict[str, dict] = {}
        for labels, value in self._requests.items():
            got = dict(labels)
            slo, outcome, tenant = got["slo"], got["outcome"], got["tenant"]
            outcomes.setdefault(slo, {})
            outcomes[slo][outcome] = outcomes[slo].get(outcome, 0) + int(value)
            tenants.setdefault(tenant, {})
            tenants[tenant][outcome] = tenants[tenant].get(outcome, 0) + int(value)
        admitted = sum(c.get("admitted", 0) for c in outcomes.values())
        shed = sum(c.get("shed", 0) for c in outcomes.values())
        submitted = sum(c.get("submitted", 0) for c in outcomes.values())
        retries = {
            dict(labels)["kind"]: int(v) for labels, v in self._retries.items()
        }
        with self._lock:
            launch = self.launch_stats.as_dict()
            salvaged_launches = self.salvaged.launches
        return {
            "requests": {
                "submitted": submitted,
                "admitted": admitted,
                "shed": shed,
                "shed_ratio": (shed / submitted) if submitted else 0.0,
            },
            "classes": {
                slo: {
                    "outcomes": dict(sorted(counts.items())),
                    "latency_s": self._latency.summary(slo=slo),
                }
                for slo, counts in sorted(outcomes.items())
            },
            "tenants": {t: dict(sorted(c.items())) for t, c in sorted(tenants.items())},
            "retries": retries,
            "launch_stats": launch,
            "salvaged_launches": int(salvaged_launches),
        }
