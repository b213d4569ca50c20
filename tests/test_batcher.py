"""Batching policies and windowing invariants (repro.serving.batcher)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import ArgumentError, ServingError
from repro.serving import (
    Batcher,
    BatchingPolicy,
    FifoPolicy,
    GreedyWindowPolicy,
    POLICIES,
    SizeBucketPolicy,
    make_policy,
)
from repro.serving.request import OPS, Request


def _req(req_id, n, arrival=0.0, deadline=None, dtype=np.float64):
    return Request(
        req_id=req_id,
        op="potrf",
        matrix=np.zeros((n, n), dtype=dtype),
        deadline=deadline,
        arrival=arrival,
    )


class TestMakePolicy:
    def test_resolves_every_registered_name(self):
        for name, cls in POLICIES.items():
            policy = make_policy(name)
            assert isinstance(policy, cls)
            assert policy.name == name

    def test_passes_instances_through(self):
        policy = GreedyWindowPolicy(max_ratio=2.0)
        assert make_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(ArgumentError, match="unknown batching policy"):
            make_policy("round-robin")

    def test_bad_parameters_raise(self):
        with pytest.raises(ArgumentError):
            SizeBucketPolicy(bucket_width=0)
        with pytest.raises(ArgumentError):
            GreedyWindowPolicy(max_ratio=0.5)


class TestFifoPolicy:
    def test_takes_arrival_order(self):
        pending = [_req(i, n) for i, n in enumerate([64, 8, 256, 16, 128])]
        picks = FifoPolicy().select(pending, urgent=0, max_batch=3)
        assert picks == [0, 1, 2]

    def test_ignores_sizes_entirely(self):
        pending = [_req(0, 1), _req(1, 500)]
        assert FifoPolicy().select(pending, urgent=0, max_batch=8) == [0, 1]

    def test_skips_incompatible_dtypes(self):
        pending = [_req(0, 32), _req(1, 32, dtype=np.float32), _req(2, 32)]
        assert FifoPolicy().select(pending, urgent=0, max_batch=8) == [0, 2]


class TestSizeBucketPolicy:
    def test_bucket_quantization(self):
        policy = SizeBucketPolicy(bucket_width=32)
        assert policy.bucket(1) == 0
        assert policy.bucket(32) == 0
        assert policy.bucket(33) == 1
        assert policy.bucket(64) == 1
        assert policy.bucket(65) == 2

    def test_serves_only_the_urgent_bucket(self):
        policy = SizeBucketPolicy(bucket_width=32)
        pending = [_req(i, n) for i, n in enumerate([10, 200, 25, 31, 100])]
        picks = policy.select(pending, urgent=0, max_batch=8)
        assert picks == [0, 2, 3]  # the 1..32 bucket

    def test_width_one_is_exact_size_grouping(self):
        policy = SizeBucketPolicy(bucket_width=1)
        pending = [_req(i, n) for i, n in enumerate([64, 65, 64, 63])]
        assert policy.select(pending, urgent=0, max_batch=8) == [0, 2]


class TestGreedyWindowPolicy:
    def test_absorbs_closest_sizes_first(self):
        policy = GreedyWindowPolicy(max_ratio=10.0)
        pending = [_req(i, n) for i, n in enumerate([100, 10, 90, 120, 105])]
        picks = policy.select(pending, urgent=0, max_batch=3)
        # urgent (100) then closest two: 105 (d=5), 90 (d=10)
        assert picks == [0, 4, 2]

    def test_ratio_bound_excludes_far_sizes(self):
        policy = GreedyWindowPolicy(max_ratio=1.5)
        pending = [_req(i, n) for i, n in enumerate([100, 10, 140, 160, 400])]
        picks = policy.select(pending, urgent=0, max_batch=8)
        sizes = sorted(pending[i].n for i in picks)
        assert max(sizes) / min(sizes) <= 1.5
        assert 0 in picks and 4 not in picks and 1 not in picks

    def test_exact_ratio_serves_equal_sizes_only(self):
        policy = GreedyWindowPolicy(max_ratio=1.0)
        pending = [_req(i, n) for i, n in enumerate([64, 65, 64, 63, 64])]
        assert sorted(policy.select(pending, urgent=0, max_batch=8)) == [0, 2, 4]

    def test_window_cannot_jump_over_its_own_bound(self):
        # 80 admits 100 (ratio 1.25) then 120/80 = 1.5 is still in, but
        # 150/80 would break the bound even though 150/120 alone fits.
        policy = GreedyWindowPolicy(max_ratio=1.5)
        pending = [_req(i, n) for i, n in enumerate([80, 100, 120, 150])]
        picks = policy.select(pending, urgent=0, max_batch=8)
        assert sorted(picks) == [0, 1, 2]


class TestBatcherWindowing:
    def test_constructor_validation(self):
        with pytest.raises(ArgumentError):
            Batcher(max_batch=0)
        with pytest.raises(ArgumentError):
            Batcher(max_wait=-1.0)
        with pytest.raises(ArgumentError):
            Batcher(deadline_margin=-0.1)

    def test_empty_batcher_is_quiet(self):
        b = Batcher()
        assert len(b) == 0
        assert b.urgent_index() is None
        assert not b.flush_due(now=100.0)
        assert b.next_wakeup(now=100.0) is None
        assert b.next_batch(now=100.0, force=True) is None

    def test_flush_on_full_window(self):
        b = Batcher("fifo", max_batch=2, max_wait=100.0)
        b.add(_req(0, 32, arrival=0.0))
        assert not b.flush_due(now=0.0)
        b.add(_req(1, 32, arrival=0.0))
        assert b.flush_due(now=0.0)
        assert b.next_wakeup(now=0.0) == 0.0

    def test_flush_on_max_wait_expiry(self):
        b = Batcher("fifo", max_batch=100, max_wait=1.0)
        b.add(_req(0, 32, arrival=5.0))
        assert not b.flush_due(now=5.5)
        assert b.next_wakeup(now=5.5) == pytest.approx(6.0)
        assert b.flush_due(now=6.0)
        assert b.next_batch(now=5.5) is None  # window still open
        assert [r.req_id for r in b.next_batch(now=6.0)] == [0]

    def test_deadline_pressure_flushes_early(self):
        b = Batcher("fifo", max_batch=100, max_wait=10.0, deadline_margin=0.5)
        b.add(_req(0, 32, arrival=0.0, deadline=2.0))
        assert not b.flush_due(now=1.0)
        assert b.flush_due(now=1.5)  # deadline - margin

    def test_urgent_is_soonest_effective_deadline(self):
        b = Batcher("fifo", max_batch=100, max_wait=10.0)
        b.add(_req(0, 32, arrival=0.0))              # effective 10.0
        b.add(_req(1, 32, arrival=1.0, deadline=3.0))  # effective 3.0
        assert b.urgent_index() == 1

    def test_ties_break_by_arrival_then_id(self):
        b = Batcher("fifo", max_batch=100, max_wait=10.0)
        b.add(_req(3, 32, arrival=1.0))
        b.add(_req(1, 32, arrival=0.0))
        b.add(_req(0, 32, arrival=0.0))
        assert b.urgent_index() == 2  # arrival 0.0, req_id 0

    def test_drain_all_empties_in_policy_shapes(self):
        b = Batcher("size-bucket", max_batch=3)
        for i, n in enumerate([10, 100, 20, 110, 30]):
            b.add(_req(i, n, arrival=float(i)))
        batches = b.drain_all()
        assert len(b) == 0
        served = sorted(r.req_id for batch in batches for r in batch)
        assert served == [0, 1, 2, 3, 4]
        for batch in batches:
            sizes = [r.n for r in batch]
            width = SizeBucketPolicy().bucket_width
            assert len({(n - 1) // width for n in sizes}) == 1

    def test_validate_rejects_a_broken_policy(self):
        class Broken(BatchingPolicy):
            name = "broken"

            def select(self, pending, urgent, max_batch):
                return [i for i in range(len(pending)) if i != urgent]

        b = Batcher(Broken(), max_batch=4)
        b.add(_req(0, 32))
        b.add(_req(1, 32))
        with pytest.raises(ServingError, match="starved the most urgent"):
            b.next_batch(now=0.0, force=True)

    def test_validate_rejects_duplicates_and_overflow(self):
        class Dup(BatchingPolicy):
            def select(self, pending, urgent, max_batch):
                return [urgent, urgent]

        class Fat(BatchingPolicy):
            def select(self, pending, urgent, max_batch):
                return list(range(len(pending)))

        for policy, msg in ((Dup(), "twice"), (Fat(), "exceeded max_batch")):
            b = Batcher(policy, max_batch=1)
            b.add(_req(0, 32))
            b.add(_req(1, 32))
            with pytest.raises(ServingError, match=msg):
                b.next_batch(now=0.0, force=True)


# ----------------------------------------------------------------------
# Property-based: no policy violates the window invariants under
# randomized arrival streams (the PR's acceptance requirement).
# ----------------------------------------------------------------------

arrival_streams = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=300),           # n
        st.floats(min_value=0.0, max_value=5.0),           # inter-arrival gap
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0)),  # rel deadline
        st.sampled_from(["d", "s"]),                       # dtype class
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(stream=arrival_streams, max_batch=st.integers(1, 8), max_wait=st.floats(0.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_batcher_invariants_under_random_arrivals(policy, stream, max_batch, max_wait):
    """Whatever arrives, every emitted batch stays within max_batch,
    contains the most urgent request, holds one dtype, and no request
    is dropped, duplicated, or left waiting past its flush instant."""
    b = Batcher(policy, max_batch=max_batch, max_wait=max_wait)
    dtypes = {"d": np.float64, "s": np.float32}
    served, now = [], 0.0

    def check_pop(now):
        expected_urgent = b.pending[b.urgent_index()].req_id
        batch = b.next_batch(now)
        if batch is None:
            # Nothing due: nobody's effective deadline has passed and
            # the window isn't full.
            assert len(b) < max_batch
            assert all(r.effective_deadline(max_wait) > now for r in b.pending)
            return False
        assert 1 <= len(batch) <= max_batch
        assert expected_urgent in {r.req_id for r in batch}
        assert len({r.dtype for r in batch}) == 1
        served.extend(r.req_id for r in batch)
        return True

    for req_id, (n, gap, rel_deadline, prec) in enumerate(stream):
        now += gap
        deadline = None if rel_deadline is None else now + rel_deadline
        b.add(_req(req_id, n, arrival=now, deadline=deadline, dtype=dtypes[prec]))
        while len(b) and check_pop(now):
            pass

    while len(b):  # drain whatever the windows still hold
        expected_urgent = b.pending[b.urgent_index()].req_id
        batch = b.next_batch(now, force=True)
        assert 1 <= len(batch) <= max_batch
        assert expected_urgent in {r.req_id for r in batch}
        assert len({r.dtype for r in batch}) == 1
        served.extend(r.req_id for r in batch)

    assert sorted(served) == list(range(len(stream)))  # no loss, no dup


# ----------------------------------------------------------------------
# The indexed Batcher against a brute-force rescan oracle.
# ----------------------------------------------------------------------
class _RescanBatcher:
    """The queue as a plain list, rescanned on every call: the
    reference the indexed Batcher must agree with."""

    def __init__(self, policy, max_batch, max_wait, deadline_margin):
        self.policy = make_policy(policy)
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.deadline_margin = deadline_margin
        self.pending = []

    def urgent_index(self):
        if not self.pending:
            return None
        return min(
            range(len(self.pending)),
            key=lambda i: (
                self.pending[i].effective_deadline(self.max_wait),
                self.pending[i].arrival,
                self.pending[i].req_id,
            ),
        )

    def flush_due(self, now):
        if not self.pending:
            return False
        if len(self.pending) >= self.max_batch:
            return True
        urgent = self.pending[self.urgent_index()]
        return now >= urgent.effective_deadline(self.max_wait) - self.deadline_margin

    def next_wakeup(self, now):
        if not self.pending:
            return None
        if len(self.pending) >= self.max_batch:
            return now
        return max(
            min(r.effective_deadline(self.max_wait) - self.deadline_margin for r in self.pending),
            now,
        )

    def next_batch(self, now, force=False):
        if not self.pending or (not force and not self.flush_due(now)):
            return None
        picks = set(self.policy.select(self.pending, self.urgent_index(), self.max_batch))
        batch = [r for i, r in enumerate(self.pending) if i in picks]
        self.pending = [r for i, r in enumerate(self.pending) if i not in picks]
        return batch

    def remove(self, req_id):
        for i, r in enumerate(self.pending):
            if r.req_id == req_id:
                return self.pending.pop(i)
        return None


_OPS = ("potrf", "posv", "getrf", "gesv", "geqrf")


def _mixed_req(req_id, n, op, dtype, arrival, deadline):
    rhs = np.zeros(n, dtype=dtype) if op in ("posv", "gesv") else None
    return Request(req_id=req_id, op=op, matrix=np.zeros((n, n), dtype=dtype), rhs=rhs,
                   deadline=deadline, arrival=arrival)


class _IndexedVsRescan(RuleBasedStateMachine):
    policy = "fifo"

    @initialize(max_batch=st.integers(1, 6), max_wait=st.sampled_from([0.0, 0.5, 2.0]),
                margin=st.sampled_from([0.0, 0.25]))
    def setup(self, max_batch, max_wait, margin):
        self.indexed = Batcher(self.policy, max_batch, max_wait, margin)
        self.oracle = _RescanBatcher(self.policy, max_batch, max_wait, margin)
        self.now = 0.0

    # Ids come from a small range, so they repeat and disagree with
    # arrival order (the tie-break must rank arrival before id).
    @rule(req_id=st.integers(0, 15), n=st.integers(1, 40), op=st.sampled_from(_OPS),
          dtype=st.sampled_from([np.float64, np.float32]), gap=st.sampled_from([0.0, 0.1, 0.7]),
          deadline=st.one_of(st.none(), st.sampled_from([0.0, 0.3, 1.0, 3.0])))
    def add(self, req_id, n, op, dtype, gap, deadline):
        self.now += gap
        d = None if deadline is None else self.now + deadline
        req = _mixed_req(req_id, n, op, dtype, self.now, d)
        self.indexed.add(req)
        self.oracle.pending.append(req)

    @rule(req_id=st.integers(0, 16))
    def cancel(self, req_id):
        assert self.indexed.remove(req_id) is self.oracle.remove(req_id)

    @rule(advance=st.sampled_from([0.0, 0.2, 1.0]), force=st.booleans())
    def pump(self, advance, force):
        self.now += advance
        got = self.indexed.next_batch(self.now, force=force)
        want = self.oracle.next_batch(self.now, force=force)
        assert (got is None) == (want is None)
        if got is not None:
            assert [r.req_id for r in got] == [r.req_id for r in want]

    @rule()
    def drain(self):
        got = self.indexed.drain_all()
        want = []
        while self.oracle.pending:
            want.append(self.oracle.next_batch(0.0, force=True))
        assert [[r.req_id for r in b] for b in got] == [[r.req_id for r in b] for b in want]

    @invariant()
    def agree(self):
        if not hasattr(self, "indexed"):
            return
        assert [r.req_id for r in self.indexed.pending] == [r.req_id for r in self.oracle.pending]
        assert self.indexed.urgent_index() == self.oracle.urgent_index()
        for now in (self.now, self.now + 0.4, self.now + 5.0):
            assert self.indexed.flush_due(now) == self.oracle.flush_due(now)
            assert self.indexed.next_wakeup(now) == self.oracle.next_wakeup(now)


for _name in sorted(POLICIES):
    _machine = type(f"Indexed_{_name.replace('-', '_')}", (_IndexedVsRescan,), {"policy": _name})
    _case = _machine.TestCase
    _case.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
    globals()[f"TestIndexedBatcher_{_name.replace('-', '_')}"] = _case
del _name, _machine, _case


def test_max_wait_change_rekeys_the_heap():
    b = Batcher("fifo", max_batch=10, max_wait=10.0)
    b.add(_req(0, 8, arrival=0.0))               # effective 10.0
    b.add(_req(1, 8, arrival=1.0, deadline=5.0))  # effective 5.0
    assert b.urgent_index() == 1
    b.max_wait = 1.0  # now 1.0 vs 2.0
    assert b.urgent_index() == 0
    assert b.next_wakeup(0.0) == 1.0


@pytest.mark.parametrize("op", OPS)
def test_request_resolves_its_fields_once(op):
    from repro.ops.registry import get_op

    req = _mixed_req(0, 5, op, np.float32, 0.0, None)
    desc = get_op(op)
    assert req.n == req.matrix.shape[0] == 5
    assert req.dtype == req.matrix.dtype
    assert req.factor_op == (desc.base or desc.name)


def test_mass_cancellation_keeps_the_queue_order():
    # Cancelling most of a long queue leaves stale heap entries behind
    # (and compacts them); the survivors keep their order and urgency.
    b = Batcher("fifo", max_batch=500, max_wait=10.0)
    for i in range(200):
        b.add(_req(i, 8, arrival=float(i)))
    for i in range(190):
        assert b.remove(i).req_id == i
    assert [r.req_id for r in b.pending] == list(range(190, 200))
    assert b.urgent_index() == 0
    assert b.next_wakeup(0.0) == 200.0
    assert [r.req_id for r in b.next_batch(0.0, force=True)] == list(range(190, 200))
    assert len(b) == 0 and b.next_wakeup(0.0) is None


def test_compatible_of_a_non_urgent_request_scans_its_own_class():
    # The Batcher hands the urgent request's class over with the queue;
    # a custom policy asking about any other request must still get
    # that request's class, exactly as from a plain list.
    seen = {}

    class Probe(BatchingPolicy):
        name = "probe"

        def select(self, pending, urgent, max_batch):
            for i in range(len(pending)):
                seen[i] = self.compatible(pending, i)
            assert seen == {i: self.compatible(list(pending), i) for i in range(len(pending))}
            return self.compatible(pending, urgent)[:max_batch]

    b = Batcher(Probe(), max_batch=8, max_wait=10.0)
    reqs = [
        _mixed_req(0, 8, "potrf", np.float64, 0.0, None),
        _mixed_req(1, 8, "getrf", np.float64, 1.0, None),
        _mixed_req(2, 8, "posv", np.float64, 2.0, None),
        _mixed_req(3, 8, "potrf", np.float32, 3.0, None),
        _mixed_req(4, 8, "gesv", np.float64, 4.0, None),
    ]
    for r in reqs:
        b.add(r)
    assert [r.req_id for r in b.next_batch(0.0, force=True)] == [0, 2]
    assert seen == {0: [0, 2], 1: [1, 4], 2: [0, 2], 3: [3], 4: [1, 4]}
