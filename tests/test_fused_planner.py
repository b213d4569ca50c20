"""The one-pass fused planner against a per-step oracle.

``FusedDriver.plan`` computes every step's live prefix, size windows
and groups from one pass over the sorted sizes and emits pre-keyed
kernels that share one launch config per distinct ``max_m``.  The
oracle below is the per-step loop it replaced: one
``partition_windows`` and one ``grouped_first_seen`` per step, and
kernels that derive their own config and key.  The two must emit the
same launches, with the same configs, memo keys and costs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import VBatch
from repro.core.fused import FusedDriver, FusedRunStats, default_fused_nb
from repro.core.plan import AuxLaunch, KernelLaunch
from repro.core.sorting import partition_windows, sorted_order
from repro.device import Device
from repro.device.kernel import LaunchConfig, int64_bytes, key_prefix
from repro.kernels import grouping
from repro.kernels.aux import StepSizesKernel
from repro.kernels.fused_potrf import FusedPotrfStepKernel, fused_cost_bytes


def _oracle(batch, max_n, etm, sorting, nb, window_width):
    """The per-step planning loop: ``[(kernel, tag)]`` and run stats."""
    nb = nb or default_fused_nb(max_n, batch.precision)
    window = window_width or max(nb, 32)
    sizes = batch.sizes_host
    order = sorted_order(sizes) if sorting else np.arange(batch.batch_count, dtype=np.int64)
    k = batch.batch_count
    work = [batch.device.alloc((k,), np.int64) for _ in range(2)] + [
        batch.device.alloc((2,), np.int64)
    ]
    stats = FusedRunStats()
    out = []
    for s in range(-(-max_n // nb)):
        offset = s * nb
        out.append((StepSizesKernel(sizes, offset, nb, *work), "aux"))
        stats.aux_launches += 1
        stats.steps += 1
        rem_all = np.maximum(0, sizes - offset)
        if sorting:
            windows = partition_windows(sizes, order, offset, window, min_count=256)
            stats.window_launches_max = max(stats.window_launches_max, len(windows))
            launches = [(w.indices, w.max_m) for w in windows]
        else:
            launches = [(order, max_n - offset)]
        for indices, max_m in launches:
            kernel = FusedPotrfStepKernel(
                sizes, batch.precision, s, nb, indices, max_m, etm,
                groups=grouping.grouped_first_seen(rem_all[indices]),
            )
            out.append((kernel, "fused"))
            stats.fused_launches += 1
    return out, stats


def _summary(result) -> tuple:
    occ, schedule, total_blocks = result
    return (occ, schedule.makespan, schedule.total_block_time, schedule.utilization,
            schedule.exact, schedule.slots, total_blocks)


@st.composite
def _batches(draw):
    # Few distinct sizes, so equal-size runs and shared windows occur;
    # over 256 matrices, so min_count merges split windows.
    pool = draw(st.lists(st.integers(0, 256), min_size=1, max_size=12))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    if max(sizes) == 0:
        sizes[0] = 1
    return sizes


@given(
    sizes=_batches(),
    extra=st.sampled_from([0, 0, 5]),
    sorting=st.booleans(),
    etm=st.sampled_from(["classic", "aggressive"]),
    nb=st.sampled_from([None, 2, 4, 8]),
    window=st.sampled_from([None, 8, 16, 48]),
    prec=st.sampled_from(["s", "d", "c", "z"]),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_planner_matches_per_step_oracle(sizes, extra, sorting, etm, nb, window, prec):
    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, sizes, prec)
    max_n = max(sizes) + extra
    driver = FusedDriver(device, etm=etm, sorting=sorting, nb=nb, window_width=window)
    plan = driver.plan(batch, max_n)
    expected, stats = _oracle(batch, max_n, etm, sorting, nb, window)
    assert plan.run_stats == stats
    assert len(plan.nodes) == len(expected)
    oracle_device = Device(execute_numerics=False)
    for i, (node, (want, tag)) in enumerate(zip(plan.nodes, expected)):
        got = node.kernel
        assert isinstance(node, AuxLaunch if tag == "aux" else KernelLaunch)
        assert (node.index, node.tag, node.stream, node.deps) == (i, tag, 0, ())
        assert type(got) is type(want)
        assert got.launch_config() == want.launch_config()
        assert got.memo_key() == want.memo_key()
        assert (got.name, got.precision, got.etm_mode) == (want.name, want.precision, want.etm_mode)
        if tag == "aux":
            assert (got.offset, got.nb) == (want.offset, want.nb)
            assert got.sizes is want.sizes
        else:
            assert (got.step, got.nb, got.max_m) == (want.step, want.nb, want.max_m)
            np.testing.assert_array_equal(got.indices, want.indices)
            for a, b in zip(got.groups, want.groups):
                np.testing.assert_array_equal(a, b)
        assert _summary(device.prepare_launch(got)) == _summary(
            oracle_device.prepare_launch(want)
        )
    # A barrier-free plan is lowered at build: one stream-0 segment.
    assert plan.program.segments == ((0, (), tuple(n.kernel for n in plan.nodes), None),)
    plan.close()


def test_oversized_panel_still_raises_and_releases_workspaces():
    from repro.errors import LaunchError

    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, [1100, 8], "s")
    for sorting in (True, False):
        with pytest.raises(LaunchError, match="max block dimension"):
            FusedDriver(device, sorting=sorting, nb=2).plan(batch, 1100)
    assert device.pool.pooled_blocks == 3  # the abandoned plans' workspaces


class TestByteKeys:
    FIELDS = ("step", "nb", "ms", "counts", "threads", "smem", "regs", "ilp",
              "efficiency", "serial", "precision", "etm")

    @staticmethod
    def _key(p, int_dtype=np.int64):
        config = LaunchConfig(p["threads"], p["smem"], p["regs"], p["ilp"])
        prefix = key_prefix(config, p["precision"], p["etm"], p["efficiency"], p["serial"])
        ms = np.asarray(p["ms"], dtype=int_dtype)
        counts = np.asarray(p["counts"], dtype=int_dtype)
        return FusedPotrfStepKernel.byte_key(
            prefix, fused_cost_bytes(p["step"], p["nb"], ms, counts)
        )

    INPUTS = st.fixed_dictionaries({
        "step": st.integers(0, 300),
        "nb": st.integers(1, 32),
        "ms": st.lists(st.integers(0, 1024), max_size=4),
        "counts": st.lists(st.integers(1, 300), max_size=4),
        "threads": st.integers(1, 1024),
        "smem": st.integers(0, 1 << 16),
        "regs": st.integers(1, 255),
        "ilp": st.sampled_from([0.5, 1.0, 2.0]),
        "efficiency": st.sampled_from([0.25, 0.7, 1.0]),
        "serial": st.sampled_from([1.0, 6.0]),
        "precision": st.sampled_from(["s", "d", "c", "z"]),
        "etm": st.sampled_from(["classic", "aggressive"]),
    })

    @given(inputs=INPUTS)
    @settings(max_examples=100, deadline=None)
    def test_equal_inputs_give_equal_bytes(self, inputs):
        assert self._key(inputs) == self._key(dict(inputs), int_dtype=np.int32)

    @given(inputs=INPUTS, other=INPUTS, field=st.sampled_from(FIELDS))
    @settings(max_examples=200, deadline=None)
    def test_one_changed_input_gives_different_bytes(self, inputs, other, field):
        changed = {**inputs, field: other[field]}
        if changed[field] == inputs[field]:
            return
        assert self._key(changed) != self._key(inputs)

    def test_arrays_must_hold_integers(self):
        with pytest.raises(TypeError):
            int64_bytes(np.array([1.5]))
