"""Plans hold shapes; the batch binds at execute time.

A plan built (and cached) for one batch runs on any other batch of the
same shape and gives that batch's own answer, bit for bit; it keeps no
reference to the batch it was planned from; and a warm-cache server
hands out answers a later batch reusing the plan cannot disturb.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.batched_blas import MatrixBatch, gemm_vbatched, syrk_vbatched, trsm_vbatched
from repro.core.batch import VBatch
from repro.core.blas_steps import BlasStepDriver
from repro.core.fused import FusedDriver
from repro.core.partial import plan_partial_potrf
from repro.core.plan import PlanCache
from repro.core.separated import SeparatedDriver
from repro.device import Device, PlanExecutor
from repro.device.topology import DeviceGroup
from repro.ops import OpOptions
from repro.ops.driver import plan_op, run_op_vbatched
from repro.ops.registry import get_op
from repro.serving import BatchServer

SIZES = [37, 5, 22, 16, 1, 30, 12, 26]
K_COLS = np.array([20, 5, 0, 9, 1, 30, 4, 13])


def _matrices(kind, seed):
    """SPD (one of them not) or general inputs of shape ``SIZES``."""
    rng = np.random.default_rng(seed)
    mats = []
    for n in SIZES:
        a = rng.standard_normal((n, n))
        mats.append(a @ a.T + n * np.eye(n) if kind == "spd" else a)
    if kind == "spd":
        mats[3] = -np.eye(SIZES[3])  # not SPD: info > 0
    else:
        mats[2][:, 1] = 0.0  # exactly singular: an LU info > 0
    return mats


def _bitwise(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _bitwise(a[key], b[key])
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def _factors(batch):
    return [batch.matrix_view(i).copy() for i in range(batch.batch_count)]


# ----------------------------------------------------------------------
# one plan, two batches
# ----------------------------------------------------------------------
PLANNERS = {
    "potrf-fused": ("spd", lambda d, b: FusedDriver(d, nb=8).plan(b, 37)),
    "potrf-separated": ("spd", lambda d, b: SeparatedDriver(d, panel_nb=16).plan(b, 37)),
    "potrf-separated-naive": (
        "spd", lambda d, b: SeparatedDriver(d, panel_nb=16, panel_mode="naive").plan(b, 37)
    ),
    "potrf-blas-steps": ("spd", lambda d, b: BlasStepDriver(d, nb=8).plan(b, 37)),
    "potrf-partial": ("spd", lambda d, b: plan_partial_potrf(d, b, K_COLS, inner_nb=4, ib=8)),
}


@pytest.mark.parametrize("case", sorted(PLANNERS))
def test_cached_planner_plan_answers_for_the_batch_it_runs_on(case):
    kind, plan_fn = PLANNERS[case]
    dev = Device()
    first = VBatch.from_host(dev, _matrices(kind, seed=1))
    cache = PlanCache()
    key = cache.key_for(dev, first, 37, case, None)
    plan = cache.get_or_build(key, dev, lambda: plan_fn(dev, first))
    PlanExecutor(dev).execute(plan, first)

    mats = _matrices(kind, seed=2)
    second = VBatch.from_host(dev, [m.copy() for m in mats])
    assert cache.key_for(dev, second, 37, case, None) == key
    assert cache.get_or_build(key, dev, lambda: pytest.fail("rebuilt")) is plan
    PlanExecutor(dev).execute(plan, second)

    direct_dev = Device()
    direct = VBatch.from_host(direct_dev, mats)
    direct_plan = plan_fn(direct_dev, direct)
    PlanExecutor(direct_dev).execute(direct_plan, direct)
    direct_plan.close()
    for got, want in zip(_factors(second), _factors(direct)):
        _bitwise(got, want)
    _bitwise(second.infos_dev.data, direct.infos_dev.data)
    assert second.infos_dev.data[3] > 0
    cache.clear()


OPS = [
    ("potrf", "spd", OpOptions(approach="fused")),
    ("potrf", "spd", OpOptions(approach="separated", panel_nb=16)),
    ("getrf", "general", OpOptions(approach="fused")),
    ("getrf", "general", OpOptions(approach="separated", panel_nb=16)),
    ("geqrf", "general", OpOptions(approach="fused")),
    ("geqrf", "general", OpOptions(approach="separated", panel_nb=16)),
    ("gesvj", "general", OpOptions()),
    ("gesvj", "general", OpOptions(sorting=True, optimize="all")),
]


@pytest.mark.parametrize("op, kind, options", OPS, ids=lambda v: getattr(v, "approach", v))
def test_cached_op_plan_answers_for_the_batch_it_runs_on(op, kind, options):
    dev = Device()
    cache = PlanCache()
    first = VBatch.from_host(dev, _matrices(kind, seed=3))
    r1 = run_op_vbatched(dev, first, 37, op, options, plan_cache=cache)
    kept = {name: np.copy(v) if isinstance(v, np.ndarray) else dict(v)
            for name, v in r1.outputs.items()}

    mats = _matrices(kind, seed=4)
    second = VBatch.from_host(dev, [m.copy() for m in mats])
    r2 = run_op_vbatched(dev, second, 37, op, options, plan_cache=cache)
    assert r2.launch_stats.plan_cache_hit and cache.planner_calls == 1

    direct_dev = Device()
    direct = VBatch.from_host(direct_dev, mats)
    want = run_op_vbatched(direct_dev, direct, 37, op, options)
    for got, exp in zip(_factors(second), _factors(direct)):
        _bitwise(got, exp)
    _bitwise(r2.infos, want.infos)
    _bitwise(r2.outputs, want.outputs)
    # The outputs belong to the plan: the second run refilled them.
    if kept:
        assert any(
            not np.array_equal(kept[k], r2.outputs[k])
            for k in kept if isinstance(kept[k], np.ndarray)
        )


def _capture_launches(dev):
    """Record every kernel ``dev`` launches."""
    kernels = []
    launch = dev.launch

    def recording(kernel, *args, **kwargs):
        kernels.append(kernel)
        return launch(kernel, *args, **kwargs)

    dev.launch = recording
    return kernels


def _rect(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


BLAS = {
    "gemm": (
        lambda rng: (
            _rect(rng, [(5, 3), (9, 4), (1, 2)]),
            _rect(rng, [(3, 4), (4, 6), (2, 7)]),
            _rect(rng, [(5, 4), (9, 6), (1, 7)]),
        ),
        lambda d, a, b, c: gemm_vbatched(d, "n", "n", 1.5, a, b, 0.5, c),
    ),
    "syrk": (
        lambda rng: (_rect(rng, [(6, 3), (11, 5), (2, 2)]), _rect(rng, [(6, 6), (11, 11), (2, 2)])),
        lambda d, a, c: syrk_vbatched(d, "l", "n", -1.0, a, 1.0, c),
    ),
    "trsm": (
        lambda rng: (
            [np.tril(m) + 8 * np.eye(len(m)) for m in _rect(rng, [(4, 4), (7, 7), (3, 3)])],
            _rect(rng, [(4, 5), (7, 2), (3, 3)]),
        ),
        lambda d, a, b: trsm_vbatched(d, "l", "l", "n", "n", 2.0, a, b),
    ),
}


@pytest.mark.parametrize("routine", sorted(BLAS))
def test_blas_kernel_answers_for_the_containers_it_launches_on(routine):
    make, call = BLAS[routine]
    dev = Device()
    kernels = _capture_launches(dev)
    call(dev, *(MatrixBatch.from_host(dev, ms) for ms in make(np.random.default_rng(0))))
    (kernel,) = kernels

    inputs = make(np.random.default_rng(1))
    others = [MatrixBatch.from_host(dev, ms) for ms in inputs]
    dev.launch(kernel, operands=tuple(others))

    direct_dev = Device()
    direct = [MatrixBatch.from_host(direct_dev, ms) for ms in inputs]
    call(direct_dev, *direct)
    for got, want in zip(others, direct):
        for g, w in zip(got.download(), want.download()):
            _bitwise(g, w)


# ----------------------------------------------------------------------
# no reference to the batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(PLANNERS))
def test_planner_plan_keeps_no_batch(case):
    kind, plan_fn = PLANNERS[case]
    dev = Device()
    batch = VBatch.from_host(dev, _matrices(kind, seed=5))
    plan = plan_fn(dev, batch)
    ref = weakref.ref(batch)
    batch.free()
    del batch
    gc.collect()
    assert ref() is None
    other = VBatch.from_host(dev, _matrices(kind, seed=6))
    PlanExecutor(dev).execute(plan, other)
    plan.close()


@pytest.mark.parametrize("op", ["potrf", "getrf", "geqrf", "gesvj"])
@pytest.mark.parametrize("optimize", ["none", "all"])
def test_op_plan_keeps_no_batch(op, optimize):
    dev = Device()
    batch = VBatch.from_host(dev, _matrices("spd" if op == "potrf" else "general", seed=7))
    desc = get_op(op)
    options = OpOptions(optimize=optimize)
    plan, _ = plan_op(dev, batch, 37, desc, options, desc.choose_approach(batch.precision, 37, options))
    ref = weakref.ref(batch)
    batch.free()
    del batch
    gc.collect()
    assert ref() is None
    plan.close()


# ----------------------------------------------------------------------
# a warm-cache server
# ----------------------------------------------------------------------
SERVED = ["potrf", "posv", "gesv", "getrf", "geqrf", "gesvj"]


def _problems(op, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in (12, 9, 12, 7):
        a = rng.standard_normal((n, n))
        if op in ("potrf", "posv"):
            a = a @ a.T + n * np.eye(n)
        out.append((a, rng.standard_normal(n) if op in ("posv", "gesv") else None))
    return out


def _direct(op, problems):
    """The single-device call a served batch of ``problems`` stands for."""
    from repro.extensions.solve import getrs_vbatched, potrs_vbatched

    base = {"posv": "potrf", "gesv": "getrf"}.get(op, op)
    order = sorted(range(len(problems)), key=lambda i: -problems[i][0].shape[0])
    dev = Device()
    batch = VBatch.from_host(dev, [problems[i][0].copy() for i in order])
    result = run_op_vbatched(dev, batch, None, base, OpOptions())
    rhs = [None if problems[i][1] is None else problems[i][1].copy() for i in order]
    if op == "posv":
        potrs_vbatched(dev, batch, rhs)
    elif op == "gesv":
        getrs_vbatched(dev, batch, result.outputs["ipivs"], rhs)
    answers = {}
    for pos, i in enumerate(order):
        n = problems[i][0].shape[0]
        extras = {}
        if base == "getrf":
            extras["ipivs"] = result.outputs["ipivs"][pos, :n]
        elif base == "geqrf":
            extras["taus"] = result.outputs["taus"][pos, :n]
        elif base == "gesvj":
            extras["singular_values"] = result.outputs["singular_values"][pos, :n]
            extras["vt"] = result.outputs["vt"][pos]
        answers[i] = (batch.matrix_view(pos).copy(), rhs[pos], extras, int(result.infos[pos]))
    return answers


@pytest.mark.parametrize("where", ["device", "group"])
def test_warm_cache_server_answers_match_direct_calls(where):
    devices = DeviceGroup.simulated(2) if where == "group" else None
    server = BatchServer(policy="fifo", max_batch=4, devices=devices)
    served = []  # (op, problems, responses, snapshot of the responses)
    for round_ in range(2):  # the second round reuses every plan
        for op in SERVED:
            problems = _problems(op, seed=10 * round_ + len(op))
            futures = [server.submit(a.copy(), None if b is None else b.copy(), op=op)
                       for a, b in problems]
            while server.pump(force=True):
                pass
            responses = [f.result(timeout=60.0) for f in futures]
            snapshot = [(r.factor.copy(), {k: np.copy(v) for k, v in r.extras.items()})
                        for r in responses]
            served.append((op, problems, responses, snapshot))
    hits = server.metrics.launch_stats.plan_cache_hits
    server.shutdown(drain=True)
    assert hits >= len(SERVED)

    for op, problems, responses, snapshot in served:
        want = _direct(op, problems)
        for i, (resp, (factor, extras)) in enumerate(zip(responses, snapshot)):
            w_factor, w_solution, w_extras, w_info = want[i]
            assert resp.info == w_info == 0
            _bitwise(resp.factor, w_factor)
            if w_solution is not None:
                _bitwise(resp.solution, w_solution)
            _bitwise(resp.extras, w_extras)
            # Later batches reused the plan: this response did not move.
            _bitwise(resp.factor, factor)
            _bitwise(resp.extras, extras)
