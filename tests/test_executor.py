"""Tests for the stream-aware plan executor and concurrent execution."""

import numpy as np
import pytest

from repro.core.plan import PlanBuilder
from repro.device import Device, LaunchProgram, PlanExecutor, execute_concurrently
from repro.device.kernel import BlockWork, Kernel, LaunchConfig
from repro.errors import PlanError
from repro.types import Precision


class _ToyKernel(Kernel):
    name = "toy"

    def __init__(self, nblocks=15, flops=1e6):
        super().__init__()
        self.nblocks = nblocks
        self.flops = flops
        self.ran = False

    @property
    def precision(self):
        return Precision.D

    def launch_config(self):
        return LaunchConfig(128, 0)

    def block_arrays(self):
        return BlockWork.pack([BlockWork(self.flops, 0.0, count=self.nblocks)])

    def run_numerics(self, operands):
        self.ran = True


class TestPlanExecutor:
    def test_executes_all_nodes_with_tag_counts(self):
        dev = Device()
        pb = PlanBuilder(dev)
        k1, k2, k3 = _ToyKernel(), _ToyKernel(), _ToyKernel()
        pb.aux(k1)
        pb.launch(k2, tag="potf2")
        pb.launch(k3, tag="potf2")
        pb.barrier()
        stats = PlanExecutor(dev).execute(pb.build())
        assert stats.launches == 3
        assert stats.aux_launches == 1
        assert stats.kernel_launches == 2
        assert stats.barriers == 1
        assert stats.count("potf2") == 2
        assert stats.count("aux") == 1
        assert k1.ran and k2.ran and k3.ran

    def test_same_stream_serializes(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel(flops=1e8))
        pb.launch(_ToyKernel(flops=1e8))
        PlanExecutor(dev).execute(pb.build())
        r1, r2 = dev.launches[-2:]
        assert r2.start >= r1.end

    def test_different_streams_overlap(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel(nblocks=1, flops=1e7), stream=1)
        pb.launch(_ToyKernel(nblocks=1, flops=1e7), stream=2)
        stats = PlanExecutor(dev).execute(pb.build())
        r1, r2 = dev.launches[-2:]
        assert r2.start < r1.end
        assert stats.streams_used == 2  # only streams that ran launches count

    def test_cross_stream_dep_becomes_event_wait(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        a = pb.launch(_ToyKernel(flops=1e9), stream=1)
        pb.launch(_ToyKernel(nblocks=1, flops=1e3), stream=2, after=(a,))
        PlanExecutor(dev).execute(pb.build())
        r1, r2 = dev.launches[-2:]
        assert r2.start >= r1.end  # despite living on another stream

    def test_same_stream_dep_needs_no_event(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        a = pb.launch(_ToyKernel(), stream=1)
        pb.launch(_ToyKernel(), stream=1, after=(a,))
        PlanExecutor(dev).execute(pb.build())  # queue order suffices; no error

    def test_barrier_joins_streams_to_host(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel(flops=1e8), stream=1)
        pb.launch(_ToyKernel(flops=1e8), stream=2)
        pb.barrier()
        pb.launch(_ToyKernel(nblocks=1, flops=1e3))  # after the join
        PlanExecutor(dev).execute(pb.build())
        *_, last = dev.launches
        prior_end = max(r.end for r in dev.launches[:-1])
        assert last.start >= prior_end

    def test_scoped_barrier_only_drains_listed_streams(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel(nblocks=1, flops=1e4), stream=1)
        pb.barrier(streams=(1,))
        stats = PlanExecutor(dev).execute(pb.build())
        assert stats.barriers == 1

    def test_closed_plan_rejected(self):
        dev = Device(execute_numerics=False)
        plan = PlanBuilder(dev).build()
        plan.close()
        with pytest.raises(PlanError):
            PlanExecutor(dev).execute(plan)

    def test_wrong_device_rejected(self):
        d1, d2 = Device(execute_numerics=False), Device(execute_numerics=False)
        plan = PlanBuilder(d1).build()
        with pytest.raises(PlanError):
            PlanExecutor(d2).execute(plan)

    def test_reexecution_replays_identical_timing(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        for _ in range(4):
            pb.launch(_ToyKernel(flops=1e7))
        plan = pb.build()
        t0 = dev.synchronize()
        PlanExecutor(dev).execute(plan)
        e1 = dev.synchronize() - t0
        t0 = dev.synchronize()
        PlanExecutor(dev).execute(plan)
        e2 = dev.synchronize() - t0
        assert e1 == e2

    def test_plan_stream_fanout_still_shares_sm_area(self):
        """Saturating kernels fanned over plan streams gain ~nothing:
        the executor's streams share one machine's SM area."""
        fan = Device(execute_numerics=False)
        pb = PlanBuilder(fan)
        for s in range(4):
            pb.launch(_ToyKernel(nblocks=1000, flops=1e8), stream=1 + s)
        PlanExecutor(fan).execute(pb.build())
        serial = Device(execute_numerics=False)
        for _ in range(4):
            serial.launch(_ToyKernel(nblocks=1000, flops=1e8))
        # Far from 4x scaling: streams only overlap wave tails and
        # launch overhead, never the SM-area itself.
        assert fan.synchronize() >= 0.8 * serial.synchronize()


class TestLaunchProgram:
    @staticmethod
    def _plan(dev):
        pb = PlanBuilder(dev)
        a = pb.launch(_ToyKernel(flops=1e9), stream=1)
        pb.aux(_ToyKernel(nblocks=1, flops=1e3), stream=2)
        pb.launch(_ToyKernel(nblocks=1, flops=1e3), stream=2, after=(a,))
        pb.launch(_ToyKernel(nblocks=2, flops=1e4))
        return pb.build()

    def test_replay_matches_walk(self):
        runs = []
        for lowered in (True, False):
            dev = Device(execute_numerics=False)
            plan = self._plan(dev)
            if lowered:
                plan.program = LaunchProgram.lower(plan)
            stats = PlanExecutor(dev).execute(plan)
            runs.append((stats, [(r.start, r.end) for r in dev.launches]))
        (replayed, trace), (walked, walk_trace) = runs
        assert replayed == walked
        assert replayed.event_waits == replayed.events_recorded == 1
        assert trace == walk_trace
        assert trace[2][0] >= trace[0][1]  # the wait held the dependent launch

    def test_barrier_plan_is_not_lowered(self):
        dev = Device(execute_numerics=False)
        pb = PlanBuilder(dev)
        pb.launch(_ToyKernel())
        pb.barrier()
        assert LaunchProgram.lower(pb.build()) is None


class TestExecuteConcurrently:
    def test_empty(self):
        assert execute_concurrently([]) == []

    def test_duplicate_device_rejected(self):
        dev = Device(execute_numerics=False)
        p1 = PlanBuilder(dev).build()
        p2 = PlanBuilder(dev).build()
        with pytest.raises(PlanError):
            execute_concurrently([p1, p2])

    def test_results_ordered_and_clocks_independent(self):
        devs = [Device(execute_numerics=False) for _ in range(3)]
        plans = []
        for i, dev in enumerate(devs):
            pb = PlanBuilder(dev)
            for _ in range(i + 1):
                pb.launch(_ToyKernel(flops=1e7))
            plans.append(pb.build())
        stats = execute_concurrently(plans)
        assert [s.launches for s in stats] == [1, 2, 3]
        times = [d.synchronize() for d in devs]
        assert times[0] < times[1] < times[2]  # each device paid only its share

    def test_matches_sequential_execution(self):
        def build(dev):
            pb = PlanBuilder(dev)
            pb.launch(_ToyKernel(flops=1e8))
            pb.launch(_ToyKernel(flops=3e7))
            return pb.build()

        d_conc = [Device(execute_numerics=False) for _ in range(2)]
        execute_concurrently([build(d) for d in d_conc])
        d_seq = [Device(execute_numerics=False) for _ in range(2)]
        for d in d_seq:
            PlanExecutor(d).execute(build(d))
        assert [d.synchronize() for d in d_conc] == [d.synchronize() for d in d_seq]


def test_numerics_plan_writes_factors():
    """End-to-end sanity: an executed numerics plan mutates the batch."""
    from repro.core.batch import VBatch
    from repro.core.fused import FusedDriver

    dev = Device()
    rng = np.random.default_rng(1)
    mats = []
    for n in (5, 9, 12):
        a = rng.standard_normal((n, n))
        mats.append(a @ a.T + n * np.eye(n))
    batch = VBatch.from_host(dev, [m.copy() for m in mats])
    plan = FusedDriver(dev).plan(batch, 12)
    PlanExecutor(dev).execute(plan, batch)
    plan.close()
    for i, a0 in enumerate(mats):
        L = np.tril(batch.matrix_view(i))
        assert np.linalg.norm(L @ L.T - a0) / np.linalg.norm(a0) < 1e-13


class _FailingKernel(_ToyKernel):
    name = "failing"

    def run_numerics(self, operands):
        raise ValueError("synthetic numerics failure")


class TestPlanExecutionError:
    """Satellite (b): concurrent failures carry plan index + device id."""

    def _plan(self, dev, kernel=None):
        pb = PlanBuilder(dev)
        pb.launch(kernel or _ToyKernel())
        return pb.build()

    def test_single_plan_failure_is_wrapped(self):
        from repro.errors import PlanExecutionError

        dev = Device()
        plan = self._plan(dev, _FailingKernel())
        with pytest.raises(PlanExecutionError) as exc_info:
            execute_concurrently([plan])
        err = exc_info.value
        assert err.plan_index == 0
        assert err.device_name == dev.name
        assert isinstance(err.__cause__, ValueError)
        assert "plan[0]" in str(err) and dev.name in str(err)

    def test_first_failure_in_plan_order_after_all_finish(self):
        from repro.errors import PlanExecutionError

        devs = [Device() for _ in range(3)]
        kernels = [_ToyKernel(), _FailingKernel(), _ToyKernel()]
        plans = [self._plan(d, k) for d, k in zip(devs, kernels)]
        with pytest.raises(PlanExecutionError) as exc_info:
            execute_concurrently(plans)
        err = exc_info.value
        assert err.plan_index == 1
        assert err.device_name == devs[1].name
        # healthy shards were not abandoned mid-flight
        assert kernels[0].ran and kernels[2].ran

    def test_is_a_plan_error(self):
        from repro.errors import PlanExecutionError

        assert issubclass(PlanExecutionError, PlanError)
