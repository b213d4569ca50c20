"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread; it prints one JSON record as its last stdout
line.  Inputs come from ``--seed`` only; the program under test sees
nothing but the generated matrices (or, for ``serve-sim`` and
``hmatrix``, the seed its own generator takes).  Every answer is
checked by :mod:`verify` after the phase that produced it, outside the
timed window.

Untraced runs (``--trace 0``) give the end-to-end metrics.  Traced runs
(``--trace 1``) alternate traced and untraced units over identical
inputs, so the tracing overhead is measured in the same process, and
report the per-layer metrics of the traced units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans
import verify

#: A closed loop starts another unit only while the run, extended by
#: its mean unit so far, stays within this share of ``--seconds``.
OVERRUN = 1.1

#: The gated speed metrics are taken at this percentile of per-unit
#: rates (and the mirror percentile of per-window latencies).  Each CPU
#: of the 2-core host the benchmark was defined on switches, for seconds
#: at a time, between speeds 1.5-2x apart; a fixed numpy loop shows it
#: in this process's CPU time as well as in wall time, so the guest's
#: own scheduler is not the cause.  The share of slow time varies from
#: run to run, so a run's mean or median speed follows the host, while a
#: high percentile follows the program as long as the run saw some fast
#: periods.  Medians and tails are printed beside the gated values.
FAST_PERCENTILE = 90


def another_unit(began: float, units: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / max(units, 1) <= seconds * OVERRUN


def fast_rate(work, walls) -> float:
    """Work per second in the run's fast periods (see FAST_PERCENTILE)."""
    rates = np.asarray(work, dtype=np.float64) / np.asarray(walls, dtype=np.float64)
    return float(np.percentile(rates, FAST_PERCENTILE))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_s(rounds: int) -> float:
    """Seconds taken by a fixed single-threaded numpy + interpreter loop."""
    a = np.random.default_rng(0).standard_normal((64, 64))
    start = time.perf_counter()
    x = a.copy()
    for _ in range(rounds):
        x = np.tanh(x @ a * 0.05)
    total = 0
    for j in range(50 * rounds):
        total += j * j
    return time.perf_counter() - start


def host_probe_ms() -> float:
    """The host-speed probe, in ms.

    Timed at the start and end of every run and recorded next to its
    metrics; a large drift between the two, or a value far above the
    baseline's, flags a noisy neighbour.  It never scales a metric.
    """
    return probe_s(400) * 1e3


def pin_to_quietest_cpu(cpus) -> None:
    """Pin the calling thread, and the threads it starts later, to the
    CPU where a 1 ms probe runs fastest right now.

    Each CPU of the host the benchmark was defined on has its own slow
    episodes, seconds long: a closed loop that picks its CPU before each
    unit spends far less of the run in them.  The probe picks a CPU and
    never scales a metric.
    """
    best, best_s = cpus[0], math.inf
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        took = min(probe_s(40) for _ in range(2))
        if took < best_s:
            best, best_s = cpu, took
    os.sched_setaffinity(0, {best})


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def spd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    r = rng.standard_normal((n, n))
    return r @ r.T + n * np.eye(n)


def general_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonsymmetric, diagonally dominant enough to be well conditioned."""
    return rng.standard_normal((n, n)) + 2.0 * math.sqrt(n) * np.eye(n)


def stacked_cholesky_s(matrices) -> float:
    """Best of three: stacked ``np.linalg.cholesky`` per size group."""
    groups: dict[int, list] = {}
    for a in matrices:
        groups.setdefault(a.shape[0], []).append(a)
    stacks = [np.stack(group) for n, group in groups.items() if n]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for stack in stacks:
            np.linalg.cholesky(stack)
        best = min(best, time.perf_counter() - start)
    return best


def tail(values) -> float:
    """p90 with at least ten samples, else the largest sample."""
    return float(np.percentile(values, 90)) if len(values) >= 10 else float(max(values))


class Workload:
    """Bookkeeping shared by the four workloads."""

    name = ""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: Peak RSS read during the run when the end of the run is the
        #: wrong moment (0: read it at the end).
        self.rss_mb = 0.0

    def fail(self, errors: list[str], count: int = 1) -> None:
        if errors:
            self.errors.extend(errors)
            self.failed += count

    def reset(self) -> None:
        """Forget what the warm-up did."""
        self.errors.clear()
        self.attempted = self.failed = 0


class UnitWorkload(Workload):
    """A closed loop of independent units (calls, policy passes, solves)."""

    #: A run has at least this many units, whatever ``--seconds`` says.
    MIN_UNITS = 1

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.allowed_cpus = sorted(os.sched_getaffinity(0))
        #: What ``throughput_per_s`` counts: matrices, requests, tiles.
        self.items = 0

    def reset(self) -> None:
        super().reset()
        self.items = 0

    def unit(self, k: int, scale: float = 1.0):
        """Run unit ``k``; returns ``(start, end, answer)`` of its timed window."""
        raise NotImplementedError

    def check(self, k: int, answer) -> float:
        """Check unit ``k``'s answer; returns the unit's work, the measure
        its wall time is normalized by."""
        raise NotImplementedError

    def on_traced(self, answer) -> None:
        """Collect what the per-layer metrics need from a traced unit."""

    def warm_up(self) -> None:
        _, _, answer = self.unit(-1, scale=0.1)
        self.check(-1, answer)
        self.reset()

    def timed_unit(self, k: int, rec=None):
        """Run and check unit ``k``, traced when ``rec`` is given;
        returns ``(start, end, work)``."""
        pin_to_quietest_cpu(self.allowed_cpus)
        if rec is None:
            start, end, answer = self.unit(k)
        else:
            with rec.installed():
                start, end, answer = self.unit(k)
            self.on_traced(answer)
        return start, end, self.check(k, answer)

    def measure(self) -> dict:
        walls, work = [], []
        began = time.perf_counter()
        while len(walls) < self.MIN_UNITS or another_unit(began, len(walls), self.seconds):
            start, end, w = self.timed_unit(len(walls))
            walls.append(end - start)
            work.append(w)
        out = self.summarize(walls, work)
        out["samples"] = {"wall_s": walls, "work": work}
        return out

    def summarize(self, walls, work) -> dict:
        """A unit of the run's median work, and items per second, at the
        fast-period rate; plus the workload's own detail."""
        rate = fast_rate(work, walls)
        return {
            "e2e": {
                "latency_ms": float(np.median(work)) / rate * 1e3,
                "throughput_per_s": rate * self.items / sum(work),
            },
            "detail": self.detail(walls, work),
        }

    def detail(self, walls, work) -> dict:
        """``{name: (value, unit)}`` printed beside the gated metrics."""
        return {}

    def trace(self, rec) -> dict:
        """Pairs of (untraced, traced) units on the same inputs; the
        order alternates so warm-cache effects cancel."""
        ratios, intervals = [], []
        began = time.perf_counter()
        k = 0
        while k < max(2, self.MIN_UNITS) or k % 2 or another_unit(began, k, self.seconds):
            walls = {}
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                start, end, _ = self.timed_unit(k, rec if is_traced else None)
                walls[is_traced] = end - start
                if is_traced:
                    intervals.append((start, end))
            ratios.append(walls[True] / walls[False])
            k += 1
        return {
            "units": k,
            "wall_s": sum(end - start for start, end in intervals),
            # The median pair ratio: host-speed swings hit single pairs.
            "overhead_ratio": float(np.median(ratios)) - 1.0,
            "intervals": intervals,
        }


class LibPotrf(UnitWorkload):
    """A library caller: ``potrf_vbatched`` on fresh batches, closed loop."""

    name = "lib-potrf"
    BATCH = 100
    MAX_N = 256

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        from repro import Device

        self.device = Device()
        self.traced_flops = 0.0
        self.lapack_s = 0.0

    def inputs(self, k: int, scale: float) -> list[np.ndarray]:
        rng = rng_for(self.seed, 1 << 20 if k < 0 else k)
        sizes = rng.integers(1, self.MAX_N + 1, size=max(1, int(self.BATCH * scale)))
        return [spd_matrix(rng, int(n)) for n in sizes]

    def unit(self, k, scale=1.0):
        from repro import VBatch, potrf_vbatched

        matrices = self.inputs(k, scale)
        self.device.reset_clock()
        start = time.perf_counter()
        batch = VBatch.from_host(self.device, matrices)
        result = potrf_vbatched(self.device, batch)
        factors = batch.download_matrices()
        batch.free()
        end = time.perf_counter()
        return start, end, (matrices, factors, np.asarray(result.infos))

    def check(self, k, answer):
        matrices, factors, infos = answer
        self.attempted += len(matrices)
        self.items += len(matrices)
        for i, (a, factor, info) in enumerate(zip(matrices, factors, infos)):
            self.fail(verify.check_cholesky(a, factor, int(info), f"call {k} matrix {i}"))
        return verify.potrf_flops([a.shape[0] for a in matrices])

    def on_traced(self, answer):
        matrices = answer[0]
        self.traced_flops += verify.potrf_flops([a.shape[0] for a in matrices])
        self.lapack_s += stacked_cholesky_s(matrices)

    def detail(self, walls, work):
        return {
            "lib.gflops": (sum(work) / sum(walls) / 1e9, "Gflop/s"),
            "lib.fast_gflops": (fast_rate(work, walls) / 1e9, "Gflop/s"),
            "lib.call_p50_ms": (float(np.median(walls)) * 1e3, "ms"),
            "lib.call_p90_ms": (tail(walls) * 1e3, "ms"),
            "lib.calls": (len(walls), "count"),
        }

    def trace(self, rec):
        out = super().trace(rec)
        out["potrf_flops"] = self.traced_flops
        out["lapack_s"] = self.lapack_s
        return out


class ServeSim(UnitWorkload):
    """The serve-bench config of ``BENCH_pr3.json``, timing only: one policy per unit.

    Unit ``k`` runs policy ``k % 4`` on the stream of pass ``k // 4``,
    so four consecutive units are one pass of ``run_serve_bench`` over
    all four policies, and each policy's wall time can be taken at its
    own fast rate.
    """

    name = "serve-sim"
    REQUESTS = 2000
    MAX_N = 256
    MIN_UNITS = 4

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        from repro.serving.loadgen import BENCH_POLICIES

        self.policies = BENCH_POLICIES
        reference = verify.load_sim_reference()
        self.reference = {int(s): v for s, v in reference.items()}

    def pass_seed(self, k: int) -> int:
        return self.seed + k // len(self.policies) if k >= 0 else self.seed + 1_000_003

    def unit(self, k, scale=1.0):
        from repro.serving.loadgen import run_serve_bench

        seed = self.pass_seed(k)
        # The warm-up runs every policy once, at a tenth of the size.
        policies = self.policies if k < 0 else (self.policies[k % len(self.policies)],)
        requests = max(1, int(self.REQUESTS * scale))
        start = time.perf_counter()
        report = run_serve_bench(requests=requests, max_size=self.MAX_N, seed=seed,
                                 policies=policies)
        end = time.perf_counter()
        return start, end, (seed, requests, report)

    def check(self, k, answer):
        seed, requests, report = answer
        # The bench's request stream: uniform sizes 1..MAX_N from the seed.
        sizes = np.random.default_rng(seed).integers(1, self.MAX_N + 1, size=requests)
        reference = self.reference.get(seed) if requests == self.REQUESTS else None
        snaps = report["policies"].values()
        self.attempted += len(sizes) * len(snaps)
        self.failed += sum(len(sizes) - snap["requests"]["completed"] for snap in snaps)
        self.errors.extend(verify.check_serve_sim(report, sizes, reference, f"pass seed {seed}"))
        return float(requests)

    def summarize(self, walls, work):
        by_policy = [
            (work[p::len(self.policies)], walls[p::len(self.policies)])
            for p in range(len(self.policies))
        ]
        # One four-policy pass, each policy at its fast-period rate.
        pass_s = sum(self.REQUESTS / fast_rate(w, t) for w, t in by_policy if w)
        served = self.REQUESTS * sum(1 for w, _ in by_policy if w)
        return {
            "e2e": {"latency_ms": pass_s * 1e3, "throughput_per_s": served / pass_s},
            "detail": {
                "sim.requests_per_s": (sum(work) / sum(walls), "req/s"),
                "sim.fast_requests_per_s": (served / pass_s, "req/s"),
                "sim.policy_p50_ms": (float(np.median(walls)) * 1e3, "ms"),
                "sim.units": (len(walls), "count"),
            },
        }


class Hmatrix(UnitWorkload):
    """Block low-rank compression to a stated accuracy, sharded on 2 devices."""

    name = "hmatrix"
    #: 128 points in clusters of 8..16 give 36-45 ragged tiles and a
    #: solve of about half a second, so a run holds some forty solves.
    #: The app's default clusters of 24..72 give few large tiles and, at
    #: 384 points, solves of 4-6 s, 3x apart between seeds.
    N_POINTS = 128
    TOL = 1e-6
    CLUSTERS = (8, 16)
    DEVICES = 2
    MAX_BATCH = 288

    def unit_seed(self, k: int) -> int:
        path = [self.seed, 1 << 20 if k < 0 else k]
        return int(np.random.SeedSequence(path).generate_state(1)[0] >> 1)

    def unit(self, k, scale=1.0):
        from repro import BatchServer, DeviceGroup
        from repro.apps.hmatrix import compress_kernel_matrix

        start = time.perf_counter()
        server = BatchServer(
            devices=DeviceGroup.simulated(self.DEVICES), policy="cross-op",
            max_batch=self.MAX_BATCH,
        )
        result = compress_kernel_matrix(
            server, n_points=max(self.CLUSTERS[1] * 2, int(self.N_POINTS * scale)),
            tol=self.TOL, seed=self.unit_seed(k),
            min_cluster=self.CLUSTERS[0], max_cluster=self.CLUSTERS[1],
        )
        server.shutdown()
        end = time.perf_counter()
        return start, end, result

    def check(self, k, result):
        requests = result.serving["requests"]
        self.attempted += requests["submitted"]
        self.failed += (
            requests["failed"] + requests["rejected"] + requests["cancelled"]
            + result.potrf_failures
        )
        self.errors.extend(verify.check_hmatrix(result, f"solve {k}"))
        self.items += len(result.ranks)
        # Solve time follows neither the tile count nor the flops (the
        # Jacobi sweeps run batched across tiles), so a solve is the unit.
        return 1.0

    def detail(self, walls, work):
        return {
            "hmatrix.solve_p50_s": (float(np.median(walls)), "s"),
            "hmatrix.solve_p90_s": (tail(walls), "s"),
            "hmatrix.tiles_per_s": (self.items / sum(walls), "tiles/s"),
            "hmatrix.solves": (len(walls), "count"),
        }


class ServeOpen(Workload):
    """Independent users against a started ``BatchServer``: open loop."""

    name = "serve-open"
    MIX = (("potrf", 0.70), ("posv", 0.15), ("gesv", 0.15))
    MAX_N = 128
    #: At 200 req/s the server is 55-75% busy on a 2-core host and p99
    #: swung 31-117 ms between 8 s runs; at 100 req/s it held 16-21 ms.
    NOMINAL_RPS = 100.0
    #: The nominal phase takes this share of ``--seconds``; ladder
    #: steps take a tenth each, in what is left.
    NOMINAL_SHARE = 0.6
    #: The nominal phase is cut into this many windows by due time.
    WINDOWS = 10
    LADDER_START_RPS = 250.0
    LADDER_FACTOR = 1.25
    LADDER_STEPS = 8
    LIMIT_MS = 100.0
    MAX_BATCH = 32

    def requests(self, tag: int, rate: float, duration: float):
        """Poisson arrivals over ``duration`` s; ops and sizes from the mix."""
        rng = rng_for(self.seed, tag)
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
        due = np.cumsum(gaps)
        due = due[due < duration]
        ops = rng.choice(len(self.MIX), size=due.size, p=[p for _, p in self.MIX])
        sizes = rng.integers(1, self.MAX_N + 1, size=due.size)
        reqs = []
        for at, op_index, n in zip(due, ops, sizes):
            op, n = self.MIX[op_index][0], int(n)
            a = general_matrix(rng, n) if op == "gesv" else spd_matrix(rng, n)
            b = None if op == "potrf" else rng.standard_normal(n)
            reqs.append((float(at), op, a, b))
        return reqs

    def phase(self, tag: int, rate: float, duration: float, rec=None) -> dict:
        """Send one schedule to a freshly started server, wait for every
        answer, then check them; traced when ``rec`` is given."""
        from repro import BatchServer

        reqs = self.requests(tag, rate, duration)
        server = BatchServer(policy="cross-op", admission="reject", max_batch=self.MAX_BATCH)
        server.start()
        try:
            if rec is None:
                out = self.send(server, tag, reqs)
            else:
                with rec.installed():
                    out = self.send(server, tag, reqs)
        finally:
            server.shutdown()
        return out | {"rate": rate, "duration": duration}

    def send(self, server, tag: int, reqs) -> dict:
        from repro import AdmissionError

        n = len(reqs)
        done = np.full(n, np.nan)
        late = np.zeros(n)
        futures: list = [None] * n
        clock = time.perf_counter
        t0 = clock() + 0.005
        for i, (at, op, a, b) in enumerate(reqs):
            delay = t0 + at - clock()
            if delay > 0:
                time.sleep(delay)
            late[i] = clock() - (t0 + at)
            try:
                fut = server.submit(a, b, op=op)
            except AdmissionError as exc:
                self.fail([f"phase {tag} request {i}: refused ({exc})"])
                continue
            fut.add_done_callback(lambda _f, i=i: done.__setitem__(i, clock()))
            futures[i] = fut
        depth = server.queue_depth
        end = clock()
        ok = np.ones(n, dtype=bool)
        batches = {}  # batch id -> (index of a request in it, size, busy seconds)
        for i, fut in enumerate(futures):
            if fut is None:
                ok[i] = False
                continue
            try:
                resp = fut.result(timeout=60.0)
            except Exception as exc:  # any error a request carries counts as a failure
                self.fail([f"phase {tag} request {i}: {type(exc).__name__}: {exc}"])
                ok[i] = False
                continue
            batches.setdefault(resp.batch_id, (i, resp.batch_size, resp.completed - resp.dispatched))
        # A future wakes its waiters before it runs its callbacks.
        settle = clock() + 5.0
        while np.isnan(done[ok]).any() and clock() < settle:
            time.sleep(1e-3)
        due = np.array([r[0] for r in reqs])
        latency = (done - (t0 + due)) * 1e3
        latency = np.where(np.isnan(latency), np.inf, latency)
        for i, (_, op, a, b) in enumerate(reqs):
            if not ok[i]:
                continue
            resp = futures[i].result()
            if op == "potrf":
                errors = verify.check_cholesky(a, resp.factor, resp.info, f"request {i}")
            else:
                errors = verify.check_solve(a, b, resp.solution, resp.info, f"request {i}")
            if errors:
                self.fail(errors)
                ok[i] = False
        latency[~ok] = np.inf
        self.attempted += n
        return {
            "count": n,
            "due": due,
            "latency_ms": latency,
            "late_ms": late * 1e3,
            "depth": depth,
            "start": t0,
            "end": end,
            # (finish time, requests, busy seconds) per batch.
            "batches": [(done[i] - t0, size, busy) for i, size, busy in batches.values()],
        }

    def windows(self, step: dict) -> tuple[list[float], list[float]]:
        """Per window of the phase: p50 latency of the requests due in
        it, and requests per second of server busy time over the
        batches finished in it."""
        edges = np.linspace(0.0, step["duration"], self.WINDOWS + 1)
        latency, rate = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            due = (step["due"] >= lo) & (step["due"] < hi)
            if due.any():
                latency.append(float(np.median(step["latency_ms"][due])))
            served = [(size, busy) for at, size, busy in step["batches"] if lo <= at < hi]
            busy = sum(b for _, b in served)
            if busy > 0:
                rate.append(sum(s for s, _ in served) / busy)
        return latency, rate

    def passes(self, step: dict) -> bool:
        return (
            bool(step["count"])
            and float(np.percentile(step["latency_ms"], 99)) <= self.LIMIT_MS
            and step["depth"] <= self.MAX_BATCH
        )

    def max_rate(self, steps: list[dict]) -> float:
        """Highest rate meeting the limit, interpolated between the last
        passing and the first failing ladder step on log(rate)-log(p99),
        so the result does not jump by whole ladder steps."""
        if not steps or not self.passes(steps[0]):
            return 0.0
        last = steps[0]
        for step in steps[1:]:
            if self.passes(step):
                last = step
                continue
            p_ok = float(np.percentile(last["latency_ms"], 99))
            p_bad = float(np.percentile(step["latency_ms"], 99))
            if not (math.isfinite(p_bad) and p_bad > self.LIMIT_MS and p_ok > 0):
                return last["rate"]
            frac = math.log(self.LIMIT_MS / p_ok) / math.log(p_bad / p_ok)
            return last["rate"] * (step["rate"] / last["rate"]) ** min(max(frac, 0.0), 1.0)
        return last["rate"]

    def warm_up(self) -> None:
        self.phase(1 << 20, self.NOMINAL_RPS, self.seconds / 20)
        self.reset()

    def measure(self) -> dict:
        began = time.perf_counter()
        step_s = self.seconds / 10
        steps = [self.phase(0, self.NOMINAL_RPS, self.seconds * self.NOMINAL_SHARE)]
        # The ladder's length depends on host speed; its inputs must not
        # move the memory metric.
        self.rss_mb = peak_rss_mb()
        rate = self.LADDER_START_RPS
        for k in range(self.LADDER_STEPS):
            if not self.passes(steps[-1]) or time.perf_counter() - began + step_s > self.seconds:
                break
            steps.append(self.phase(k + 1, rate, step_s))
            rate *= self.LADDER_FACTOR
        nominal = steps[0]
        window_p50, window_rate = self.windows(nominal)
        p50, p99 = np.percentile(nominal["latency_ms"], [50, 99])
        return {
            "e2e": {
                "latency_ms": float(np.percentile(window_p50, 100 - FAST_PERCENTILE)),
                "throughput_per_s": float(np.percentile(window_rate, FAST_PERCENTILE)),
            },
            "detail": {
                "open.latency_p50_ms": (float(p50), "ms"),
                "open.latency_p99_ms": (float(p99), "ms"),
                "open.service_rate_rps": (
                    nominal["count"] / sum(b for *_, b in nominal["batches"]), "req/s"),
                "open.max_rate_rps": (self.max_rate(steps), "req/s"),
                "open.ladder": (
                    [[round(s["rate"], 1), round(float(np.percentile(s["latency_ms"], 99)), 2),
                      s["depth"]] for s in steps[1:]],
                    "rate,p99_ms,depth",
                ),
                "loadgen.late_p99_ms": (float(np.percentile(nominal["late_ms"], 99)), "ms"),
            },
            "samples": {"window_p50_ms": window_p50, "window_rate_rps": window_rate},
        }

    def trace(self, rec) -> dict:
        """The nominal phase untraced, then traced on the same schedule;
        overhead is the ratio of the server's busy time."""
        phases = {
            traced: self.phase(0, self.NOMINAL_RPS, self.seconds / 2, rec if traced else None)
            for traced in (False, True)
        }
        busy = {traced: sum(b for *_, b in p["batches"]) for traced, p in phases.items()}
        t = phases[True]
        potrf_inputs = [
            a for _, op, a, _ in self.requests(0, self.NOMINAL_RPS, self.seconds / 2)
            if op != "gesv"
        ]
        return {
            "units": 1,
            "wall_s": t["end"] - t["start"],
            "overhead_ratio": busy[True] / busy[False] - 1.0,
            "intervals": [(t["start"], t["end"])],
            "lapack_s": stacked_cholesky_s(potrf_inputs),
            "late_p99_ms": float(np.percentile(t["late_ms"], 99)),
        }


WORKLOADS = {w.name: w for w in (LibPotrf, ServeSim, ServeOpen, Hmatrix)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    allowed_cpus = os.sched_getaffinity(0)
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    pin_to_quietest_cpu(sorted(allowed_cpus))
    workload.warm_up()
    setup_s = time.monotonic() - args.t0
    os.sched_setaffinity(0, allowed_cpus)
    record = {"setup_s": setup_s}
    if not args.setup_only:
        probe_start = host_probe_ms()
        if args.trace:
            rec = spans.Recorder()
            out = workload.trace(rec)
            record["per_layer"] = spans.layer_metrics(
                rec, wall_s=out["wall_s"], intervals=out["intervals"],
                potrf_flops=out.get("potrf_flops", 0.0), lapack_s=out.get("lapack_s", 0.0),
            ) | {
                "trace.overhead_ratio": out["overhead_ratio"],
                "loadgen.late_p99_ms": out.get("late_p99_ms", 0.0),
            }
            record["detail"] = {"trace.units": (out["units"], "count")}
            record["missing_targets"] = rec.missing
            if args.trace_out is not None:
                args.trace_out.parent.mkdir(parents=True, exist_ok=True)
                rec.dump(args.trace_out)
        else:
            out = workload.measure()
            record["e2e"] = out["e2e"]
            record["detail"] = out["detail"]
            record["samples"] = out["samples"]
        record["host_probe_ms"] = [probe_start, host_probe_ms()]
        record["peak_rss_mb"] = workload.rss_mb or peak_rss_mb()
        record["correct"] = not workload.errors
        record["attempted"] = workload.attempted
        record["failed"] = workload.failed
        record["errors"] = workload.errors[:20]
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
