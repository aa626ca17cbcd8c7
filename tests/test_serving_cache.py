"""Cache correctness: strict mode is invisible, TTL staleness is bounded."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InteractionDataset
from repro.errors import ConfigurationError
from repro.recsys import ItemKNN, PopularityRecommender
from repro.serving import ServingConfig, ShardedRecommendationService, TopKCache


def _tiny():
    profiles = [[0, 1, 2, 3], [2, 3, 4], [5, 6], [0, 4, 7, 8, 9], [1, 5, 9], [3, 6, 8]]
    return InteractionDataset(profiles, n_items=10, name="tiny")


class TestTopKCacheUnit:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TopKCache(capacity=0)
        with pytest.raises(ConfigurationError):
            TopKCache(ttl_injections=-1)

    def test_lru_eviction_order(self):
        cache = TopKCache(capacity=2)
        cache.store(0, 5, True, np.array([1]))
        cache.store(1, 5, True, np.array([2]))
        cache.lookup(0, 5, True)  # 0 is now most-recent
        cache.store(2, 5, True, np.array([3]))  # evicts 1
        assert cache.lookup(1, 5, True) is None
        assert cache.lookup(0, 5, True) is not None
        assert cache.stats.evictions == 1

    def test_strict_mode_flushes_on_injection(self):
        cache = TopKCache(capacity=8, ttl_injections=0)
        cache.store(0, 5, True, np.array([1]))
        cache.note_injection()
        assert len(cache) == 0
        assert cache.lookup(0, 5, True) is None

    def test_ttl_mode_serves_until_horizon(self):
        cache = TopKCache(capacity=8, ttl_injections=2)
        cache.store(0, 5, True, np.array([1]))
        cache.note_injection()
        cache.note_injection()
        assert cache.staleness(0, 5, True) == 2
        assert cache.lookup(0, 5, True) is not None  # exactly at horizon
        cache.note_injection()
        assert cache.lookup(0, 5, True) is None  # past horizon

    def test_flush_resets_version(self):
        """``version`` promises injections since construction/flush, so a
        flush must rewind it — a restored service's cache would otherwise
        report phantom injections from the rolled-back episode."""
        cache = TopKCache(capacity=8)
        cache.store(0, 5, True, np.array([1]))
        cache.note_injection()
        cache.note_injection()
        assert cache.version == 2
        cache.flush()
        assert cache.version == 0
        assert len(cache) == 0
        # The rewound clock cannot mis-age anything: a fresh store is
        # served and ages from zero.
        cache.store(0, 5, True, np.array([2]))
        assert cache.staleness(0, 5, True) == 0

    def test_store_validates_length_against_catalog(self):
        cache = TopKCache(capacity=8, n_items=10)
        cache.store(0, 5, True, np.arange(5))  # min(k, n_items) = 5
        cache.store(1, 20, True, np.arange(10))  # k beyond catalog: full ranking
        with pytest.raises(ConfigurationError, match="refusing to cache"):
            cache.store(2, 5, True, np.arange(3))  # truncated list
        with pytest.raises(ConfigurationError, match="refusing to cache"):
            cache.store_batch([3], 5, True, [np.arange(6)])  # overlong list
        # Failed stores must not have landed.
        assert cache.lookup(2, 5, True) is None
        assert cache.lookup(3, 5, True) is None
        with pytest.raises(ConfigurationError):
            TopKCache(capacity=8, n_items=0)

    def test_store_without_catalog_size_skips_validation(self):
        """``n_items=None`` keeps the cache agnostic for callers without
        a catalog (the historical constructor signature)."""
        cache = TopKCache(capacity=8)
        cache.store(0, 5, True, np.array([3, 1, 2]))
        assert list(cache.lookup(0, 5, True)) == [3, 1, 2]

    def test_keys_distinguish_k_and_exclude_seen(self):
        cache = TopKCache(capacity=8)
        cache.store(0, 5, True, np.array([1]))
        assert cache.lookup(0, 6, True) is None
        assert cache.lookup(0, 5, False) is None


# Operation scripts: each element is (kind, payload) where queries name a
# (user, k) pair, injections a profile, and 'restore' rolls back to the
# snapshot taken at service construction.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.tuples(st.integers(0, 5), st.integers(1, 6)),
        ),
        st.tuples(
            st.just("inject"),
            st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
        ),
        st.tuples(st.just("restore"), st.none()),
    ),
    min_size=1,
    max_size=24,
)


class TestStrictCacheIsInvisible:
    @given(_ops)
    @settings(max_examples=40, deadline=None)
    def test_interleaved_query_inject_restore(self, ops):
        """Strict-mode cached results == uncached top_k, element-wise, always."""
        model = ItemKNN().fit(_tiny())
        service = ShardedRecommendationService(
            model, config=ServingConfig(cache_capacity=16, ttl_injections=0)
        )
        base = service.snapshot()
        for kind, payload in ops:
            if kind == "query":
                user, k = payload
                served = service.query([user], k)[0]
                truth = model.top_k(user, k)
                np.testing.assert_array_equal(served, truth)
            elif kind == "inject":
                service.inject(payload)
            else:
                service.restore(base)

    def test_cache_hits_occur(self):
        """The invisibility above is not vacuous: repeats do hit the cache."""
        model = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(model, config=ServingConfig(cache_capacity=16))
        for _ in range(2):
            for user in range(4):
                service.query([user], 3)
        assert service.cache_stats().hits == 4
        assert service.cache_stats().misses == 4


class TestTTLStalenessBound:
    def test_served_list_is_a_recent_ground_truth(self):
        """TTL mode may serve stale lists, but never older than the horizon.

        After every operation we record the current uncached ground truth
        per version; whatever the service serves must equal the ground
        truth of some version at most ``ttl`` injections old.
        """
        ttl = 3
        model = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(
            model, config=ServingConfig(cache_capacity=16, ttl_injections=ttl)
        )
        user, k = 0, 4
        truth_by_version = {0: model.top_k(user, k)}
        rng = np.random.default_rng(3)
        version = 0
        for step in range(30):
            if step % 3 == 2:
                profile = rng.choice(10, size=3, replace=False)
                service.inject([int(v) for v in profile])
                version += 1
                truth_by_version[version] = model.top_k(user, k)
            served = service.query([user], k)[0]
            admissible = [
                truth_by_version[v]
                for v in range(max(0, version - ttl), version + 1)
            ]
            assert any(np.array_equal(served, t) for t in admissible), (
                f"step {step}: served list matches no ground truth within "
                f"{ttl} injections"
            )

    def test_staleness_actually_happens(self):
        """With a popularity model, injections change the truth while the
        TTL cache keeps serving the pre-injection list inside the horizon."""
        model = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(
            model, config=ServingConfig(cache_capacity=16, ttl_injections=5)
        )
        before = service.query([2], 3)[0]
        for _ in range(3):
            service.inject([7, 8])  # pushes items 7/8 up the charts
        stale = service.query([2], 3)[0]
        truth = model.top_k(2, 3)
        np.testing.assert_array_equal(stale, before)
        assert not np.array_equal(stale, truth)

    def test_restore_flushes_ttl_entries(self):
        model = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(
            model, config=ServingConfig(cache_capacity=16, ttl_injections=10)
        )
        base = service.snapshot()
        service.query([0], 4)
        service.inject([7, 8, 9])
        service.restore(base)
        assert len(service.shards[0].cache) == 0
        np.testing.assert_array_equal(service.query([0], 4)[0], model.top_k(0, 4))


class TestStalenessReporting:
    def test_expired_resident_entry_reports_none(self):
        """Regression: an entry aged past the TTL horizon used to report
        its raw age even though a lookup would never serve it (it counts
        as invalidation + miss); `staleness` must say None, like absent."""
        cache = TopKCache(capacity=8, ttl_injections=1)
        cache.store(0, 5, True, np.array([1]))
        cache.note_injection()
        assert cache.staleness(0, 5, True) == 1  # at the horizon: servable
        cache.note_injection()
        assert len(cache) == 1  # still resident — lazily invalidated
        assert cache.staleness(0, 5, True) is None  # but never servable
        assert cache.lookup(0, 5, True) is None

    def test_absent_key_reports_none(self):
        assert TopKCache().staleness(42, 5, True) is None


# A batch script drives one cache through interleaved batched lookups,
# stores of whatever missed, and injections; the mirror cache replays the
# identical operations through the scalar methods.
_batch_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("lookup"),
            st.lists(st.integers(0, 9), min_size=0, max_size=8),
        ),
        st.tuples(st.just("inject"), st.none()),
    ),
    min_size=1,
    max_size=20,
)


class TestBatchScalarEquivalence:
    """lookup_batch/store_batch are observationally identical to scalar
    loops: same returned lists, same four counters, same LRU key order.
    The vectorized serving path relies on this to keep the engine
    conformance invariants (bit-identical counters across engines)."""

    @given(_batch_ops, st.sampled_from([0, 2]), st.sampled_from([2, 4, 64]))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_ops_match(self, ops, ttl, capacity):
        k = 5
        batched = TopKCache(capacity=capacity, ttl_injections=ttl)
        scalar = TopKCache(capacity=capacity, ttl_injections=ttl)
        for kind, payload in ops:
            if kind == "inject":
                batched.note_injection()
                scalar.note_injection()
                continue
            users = payload
            got, miss_positions = batched.lookup_batch(users, k, True)
            expected = [scalar.lookup(u, k, True) for u in users]
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                if e is None:
                    assert g is None
                else:
                    np.testing.assert_array_equal(g, e)
            assert miss_positions.tolist() == [
                i for i, e in enumerate(expected) if e is None
            ]
            # Store a fresh list for every *distinct* missed user, in
            # first-miss order — exactly what resolve_slice does.
            missed: list[int] = []
            for position in miss_positions.tolist():
                if users[position] not in missed:
                    missed.append(users[position])
            rows = [np.arange(k) + u for u in missed]
            batched.store_batch(missed, k, True, rows)
            for u, row in zip(missed, rows):
                scalar.store(u, k, True, row)
            assert batched.stats == scalar.stats
            assert list(batched._entries.keys()) == list(scalar._entries.keys())
        assert batched.stats == scalar.stats
        assert len(batched) == len(scalar)

    def test_store_batch_evicts_per_insert(self):
        """Eviction pressure applies after each insert, so re-storing a
        resident key mid-batch cannot push the count over capacity."""
        cache = TopKCache(capacity=2)
        cache.store_batch([0, 1, 0, 2, 3], 5, True, [np.array([i]) for i in range(5)])
        assert len(cache) == 2
        assert list(cache._entries.keys()) == [(2, 5, True), (3, 5, True)]
        assert cache.stats.evictions == 2

    def test_lookup_batch_returns_stored_rows_readonly(self):
        cache = TopKCache(capacity=4)
        cache.store_batch([7], 3, True, [np.array([1, 2, 3])])
        (row,), misses = cache.lookup_batch([7], 3, True)
        assert misses.size == 0
        with pytest.raises(ValueError):
            row[0] = 99
