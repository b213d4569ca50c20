"""LaunchStats accumulation semantics (merge identity, cache counters)."""

import pytest

from repro.core import LaunchStats, OpOptions, PlanCache, VBatch
from repro.core.interface import potrf_vbatched_max
from repro.device import Device
from repro import distributions as dist


def _stats(**kw):
    return LaunchStats(**kw)


class TestMergeEdgeCases:
    def test_empty_is_a_left_identity(self):
        acc = _stats()
        run = _stats(
            steps=3, fused_launches=3, executed_launches=5, plan_nodes=5,
            plan_cache_hit=True, plan_cache_hits=1, batches=1,
        )
        acc.merge(run)
        assert acc.as_dict() == pytest.approx(
            {**run.as_dict(), "devices_used": acc.devices_used}
        )
        # The fresh accumulator adopted the run's hit flag, not
        # False-and-True = False.
        assert acc.plan_cache_hit is True

    def test_merging_an_empty_run_changes_nothing(self):
        acc = _stats(steps=2, batches=1, plan_cache_hit=True, plan_cache_hits=1)
        before = acc.as_dict()
        acc.merge(_stats())  # e.g. a zero-shard merge
        assert acc.as_dict() == before

    def test_repeated_merges_sum_counters(self):
        acc = _stats()
        runs = [
            _stats(steps=1, executed_launches=2, batches=1, plan_cache_misses=1),
            _stats(steps=2, executed_launches=3, batches=1, plan_cache_hits=1,
                   plan_cache_hit=True),
            _stats(steps=4, executed_launches=5, batches=1, plan_cache_hits=1,
                   plan_cache_hit=True),
        ]
        for run in runs:
            acc.merge(run)
        assert acc.steps == 7
        assert acc.executed_launches == 10
        assert acc.batches == 3
        assert (acc.plan_cache_hits, acc.plan_cache_misses) == (2, 1)
        assert acc.plan_cache_hit is False  # first run missed: and-fold

    def test_merge_associates_through_a_fresh_accumulator(self):
        a = _stats(steps=1, batches=1, plan_cache_hit=True, plan_cache_hits=1)
        b = _stats(steps=2, batches=1, plan_cache_hit=True, plan_cache_hits=1)
        direct = _stats()
        direct.merge(a)
        direct.merge(b)
        via = _stats()
        inner = _stats()
        inner.merge(a)
        inner.merge(b)
        via.merge(inner)
        assert direct.as_dict() == via.as_dict()
        assert direct.plan_cache_hit is True

    def test_all_hit_runs_keep_the_flag(self):
        acc = _stats()
        for _ in range(4):
            acc.merge(_stats(batches=1, plan_cache_hit=True, plan_cache_hits=1))
        assert acc.plan_cache_hit is True
        assert acc.plan_cache_hits == 4

    def test_devices_used_is_the_accumulators_own(self):
        acc = _stats(devices_used=4)
        acc.merge(_stats(devices_used=2, batches=1, steps=1))
        assert acc.devices_used == 4  # bookkeeping, never summed

    def test_mapping_compatibility(self):
        s = _stats(steps=5)
        assert s["steps"] == 5
        assert "plan_cache_hits" in s.keys()
        with pytest.raises(KeyError):
            s["nope"]


class TestKeyedIdempotentMerge:
    """The retry-accounting contract (``merge(..., key=)``): a batch
    retried on another replica adds its physical execution work again
    but counts as ONE logical batch — no double-counted ``batches``,
    plan-cache hits, or steps in fleet-wide totals."""

    def _attempt(self):
        return _stats(
            steps=3, executed_launches=5, barriers=2, plan_nodes=4,
            plan_builds=1, plan_cache_misses=1, batches=1,
        )

    def test_same_key_counts_logical_fields_once(self):
        acc = _stats()
        key = ("fleet:r0", frozenset({1, 2, 3}))
        acc.merge(self._attempt(), key=key)   # failed attempt
        acc.merge(self._attempt(), key=key)   # retry of the same batch
        assert acc.batches == 1
        assert acc.steps == 3
        assert (acc.plan_nodes, acc.plan_builds, acc.plan_cache_misses) == (4, 1, 1)
        # Physical work really happened twice and must say so.
        assert acc.executed_launches == 10
        assert acc.barriers == 4

    def test_distinct_keys_add_everything(self):
        acc = _stats()
        acc.merge(self._attempt(), key=("r0", frozenset({1})))
        acc.merge(self._attempt(), key=("r1", frozenset({2})))
        assert acc.batches == 2
        assert acc.steps == 6
        assert acc.executed_launches == 10

    def test_retry_does_not_disturb_the_hit_fold(self):
        acc = _stats()
        key = ("r0", frozenset({7}))
        acc.merge(
            _stats(batches=1, plan_cache_hit=True, plan_cache_hits=1), key=key
        )
        # The retry missed the (warm) fold question entirely: same batch.
        acc.merge(
            _stats(batches=1, plan_cache_hit=False, plan_cache_misses=1), key=key
        )
        assert acc.plan_cache_hit is True
        assert (acc.plan_cache_hits, acc.plan_cache_misses) == (1, 0)

    def test_unkeyed_merges_are_unaffected(self):
        keyed = _stats()
        keyed.merge(self._attempt(), key=("r0", frozenset({1})))
        plain = _stats()
        plain.merge(self._attempt())
        assert plain.as_dict() == keyed.as_dict()
        # And interleaving unkeyed merges never consults the key set.
        keyed.merge(self._attempt())
        assert keyed.batches == 2

    def test_three_attempts_one_batch(self):
        acc = _stats()
        key = ("r2", frozenset({4, 5}))
        for _ in range(3):
            acc.merge(self._attempt(), key=key)
        assert acc.batches == 1
        assert acc.executed_launches == 15


class TestDriverPopulatesCacheCounters:
    def _run(self, cache):
        dev = Device(execute_numerics=False)
        sizes = dist.generate_sizes("uniform", 20, 64, seed=2)
        batch = VBatch.allocate(dev, sizes, "d")
        opts = OpOptions(approach="fused")
        return [
            potrf_vbatched_max(dev, batch, int(sizes.max()), opts, plan_cache=cache)
            for _ in range(3)
        ]

    def test_counters_track_cache_traffic(self):
        results = self._run(PlanCache())
        stats = [r.launch_stats for r in results]
        assert [s.plan_cache_misses for s in stats] == [1, 0, 0]
        assert [s.plan_cache_hits for s in stats] == [0, 1, 1]
        assert all(s.batches == 1 for s in stats)
        acc = LaunchStats()
        for s in stats:
            acc.merge(s)
        assert (acc.plan_cache_hits, acc.plan_cache_misses, acc.batches) == (2, 1, 3)

    def test_counters_stay_zero_without_a_cache(self):
        for r in self._run(None):
            s = r.launch_stats
            assert (s.plan_cache_hits, s.plan_cache_misses) == (0, 0)
            assert s.batches == 1
