"""The one-shard service: batching, quotas, detector hook, snapshots, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.defense import ShillingDetector
from repro.errors import (
    ConfigurationError,
    InjectionBlockedError,
    RateLimitExceededError,
    SnapshotError,
)
from repro.recsys import BlackBoxRecommender, PopularityRecommender
from repro.serving import (
    QuotaPolicy,
    RateLimiter,
    ServingConfig,
    ShardedRecommendationService,
)


def _tiny():
    profiles = [[0, 1, 2, 3], [2, 3, 4], [5, 6], [0, 4, 7, 8, 9], [1, 5, 9], [3, 6, 8]]
    return InteractionDataset(profiles, n_items=10, name="tiny")


def _service(config=None, **kwargs):
    model = PopularityRecommender().fit(_tiny())
    return ShardedRecommendationService(model, config=config, **kwargs), model


class TestQueryPath:
    def test_requires_fitted_model(self):
        with pytest.raises(ConfigurationError):
            ShardedRecommendationService(PopularityRecommender())

    def test_matches_model_top_k(self):
        service, model = _service()
        lists = service.query([0, 1, 2], k=4)
        for user, served in zip([0, 1, 2], lists):
            np.testing.assert_array_equal(served, model.top_k(user, 4))

    def test_rejects_bad_k(self):
        service, _ = _service()
        with pytest.raises(ConfigurationError):
            service.query([0], k=0)

    def test_duplicate_users_in_one_request(self):
        service, model = _service(ServingConfig(cache_capacity=8))
        lists = service.query([1, 1, 2, 1], k=3)
        assert len(lists) == 4
        for served in lists[:2] + lists[3:]:
            np.testing.assert_array_equal(served, model.top_k(1, 3))
        # The three duplicates cost one model scoring, not three.
        assert service.stats.n_users_scored == 2

    def test_use_cache_false_bypasses_and_does_not_store(self):
        service, _ = _service(ServingConfig(cache_capacity=8))
        service.query([0], k=3, use_cache=False)
        assert len(service.shards[0].cache) == 0
        assert service.stats.n_users_scored == 1

    def test_stats_record_wall_time_and_batch_size(self):
        service, _ = _service()
        service.query([0, 1], k=3)
        service.query([2], k=3)
        assert service.stats.n_requests == 2
        assert service.stats.batch_sizes == [2, 1]
        assert len(service.stats.wall_times) == 2
        summary = service.stats.summary()
        assert summary["mean_batch_size"] == 1.5
        assert summary["p95_wall_ms"] >= 0.0


class TestDenialSplit:
    """Denied work is split by cause: quota vs queue-shed vs timed-out.

    Rate-limit denials are recorded by the service itself; shed and
    timed-out are recorded by the admission front. Each must stay its
    own counter — a flat "denied" number hides whether the limiter or
    the queue is doing the work."""

    def test_rate_limited_counted_by_service(self):
        service, _ = _service(
            ServingConfig(default_policy=QuotaPolicy(max_queries_per_window=1))
        )
        service.query([0], k=3)
        with pytest.raises(RateLimitExceededError):
            service.query([1], k=3)
        assert service.stats.n_rate_limited == 1
        assert service.stats.n_shed == 0
        assert service.stats.n_timed_out == 0

    def test_shed_and_timed_out_are_independent_counters(self):
        service, _ = _service()
        service.stats.record_shed()
        service.stats.record_shed()
        service.stats.record_timed_out()
        assert service.stats.n_shed == 2
        assert service.stats.n_timed_out == 1
        assert service.stats.n_rate_limited == 0

    def test_summary_emits_denial_keys_only_when_nonzero(self):
        service, _ = _service()
        service.query([0], k=3)
        summary = service.stats.summary()
        assert "n_rate_limited" not in summary
        assert "n_shed" not in summary
        assert "n_timed_out" not in summary
        service.stats.record_shed()
        service.stats.record_timed_out()
        service.stats.record_rate_limited()
        summary = service.stats.summary()
        assert summary["n_rate_limited"] == 1
        assert summary["n_shed"] == 1
        assert summary["n_timed_out"] == 1

    def test_reset_zeroes_denial_counters(self):
        service, _ = _service()
        service.stats.record_shed()
        service.stats.record_timed_out()
        service.stats.record_rate_limited()
        service.stats.reset()
        assert service.stats.n_shed == 0
        assert service.stats.n_timed_out == 0
        assert service.stats.n_rate_limited == 0


class TestRateLimiting:
    def test_qps_cap_with_logical_clock(self):
        ticks = iter(x * 0.1 for x in range(100))
        limiter = RateLimiter(
            QuotaPolicy(max_queries_per_window=3, window_seconds=1.0),
            clock=lambda: next(ticks),
        )
        for _ in range(3):
            limiter.admit_query("c", 1)
        with pytest.raises(RateLimitExceededError):
            limiter.admit_query("c", 1)
        assert limiter.n_denied_queries == 1

    def test_window_slides(self):
        now = [0.0]
        limiter = RateLimiter(
            QuotaPolicy(max_queries_per_window=2, window_seconds=1.0),
            clock=lambda: now[0],
        )
        limiter.admit_query("c", 1)
        limiter.admit_query("c", 1)
        now[0] = 1.5  # first window expired
        limiter.admit_query("c", 1)

    def test_window_expiry_boundary_is_inclusive(self):
        """An event ages out at *exactly* one window: the expiry test is
        ``now - events[0] >= window``, so an admission attempted exactly
        ``window_seconds`` after a blocking event succeeds, while one an
        epsilon earlier is still denied (pinned with a fake clock)."""
        now = [0.0]
        limiter = RateLimiter(
            QuotaPolicy(max_queries_per_window=1, window_seconds=1.0),
            clock=lambda: now[0],
        )
        limiter.admit_query("c", 1)  # t=0.0 fills the window
        now[0] = 1.0 - 1e-9
        with pytest.raises(RateLimitExceededError):
            limiter.admit_query("c", 1)  # strictly inside: denied
        now[0] = 1.0
        limiter.admit_query("c", 1)  # exactly at the boundary: expired
        assert limiter.n_denied_queries == 1

    def test_cohort_size_cap(self):
        service, _ = _service(
            ServingConfig(default_policy=QuotaPolicy(max_users_per_query=2))
        )
        service.query([0, 1], k=3)
        with pytest.raises(RateLimitExceededError):
            service.query([0, 1, 2], k=3)

    def test_injection_quota(self):
        service, _ = _service(
            ServingConfig(default_policy=QuotaPolicy(max_total_injections=2))
        )
        service.inject([0, 1])
        service.inject([2])
        with pytest.raises(RateLimitExceededError):
            service.inject([3])

    def test_per_client_policies_are_independent(self):
        service, _ = _service(
            ServingConfig(
                client_policies=(("attacker", QuotaPolicy(max_total_injections=1)),)
            )
        )
        service.inject([0, 1], client="attacker")
        with pytest.raises(RateLimitExceededError):
            service.inject([2], client="attacker")
        service.inject([2], client="organic")  # default policy is unlimited


class TestDetectorHook:
    def _detector_service(self, mode):
        model = PopularityRecommender().fit(_tiny())
        detector = ShillingDetector(target_false_positive_rate=0.2).fit(model.dataset)
        service = ShardedRecommendationService(
            model, config=ServingConfig(detector_mode=mode), detector=detector
        )
        return service, detector

    def test_detector_required_when_mode_on(self):
        model = PopularityRecommender().fit(_tiny())
        with pytest.raises(ConfigurationError):
            ShardedRecommendationService(model, config=ServingConfig(detector_mode="block"))

    def test_block_mode_rejects_outliers(self):
        service, detector = self._detector_service("block")
        # A single-item degenerate profile is far from the organic population.
        outlier = [9]
        assert detector.score(tuple(outlier)) > detector.threshold
        users_before = service.n_users
        with pytest.raises(InjectionBlockedError):
            service.inject(outlier)
        assert service.n_users == users_before
        assert service.stats.n_blocked_injections == 1

    def test_flag_mode_admits_but_records(self):
        service, detector = self._detector_service("flag")
        outlier = [9]
        assert detector.score(tuple(outlier)) > detector.threshold
        user_id = service.inject(outlier)
        assert service.n_users == 7
        assert service.flagged_injections and service.flagged_injections[0][0] == user_id

    def test_flagged_record_carries_the_assigned_id(self):
        """Regression: the flagged record must hold the id ``add_user``
        actually assigned — not a user count read on the other side of
        the add — so repeated flagged injections stay aligned with the
        ids the caller received."""
        service, detector = self._detector_service("flag")
        outlier = [9]
        assigned = [service.inject(outlier) for _ in range(3)]
        assert [uid for uid, _ in service.flagged_injections] == assigned
        for uid, score in service.flagged_injections:
            assert score > detector.threshold
            assert 0 <= uid < service.n_users

    def test_inject_batch_records_flagged_ids(self):
        service, detector = self._detector_service("flag")
        organic = list(_tiny().user_profile(0))
        assigned = service.inject_batch([organic, [9], organic, [9]])
        assert assigned == list(range(6, 10))
        assert [uid for uid, _ in service.flagged_injections] == [7, 9]

    def test_organic_profile_passes(self):
        service, detector = self._detector_service("block")
        organic = list(_tiny().user_profile(0))
        assert detector.score(tuple(organic)) <= detector.threshold
        service.inject(organic)


class TestSnapshots:
    def test_restore_rejects_foreign_snapshot(self):
        service, _ = _service()
        with pytest.raises(SnapshotError):
            service.restore(("not", "a", "snapshot"))

    def test_restore_rejects_forward_snapshot(self):
        """A snapshot taken after injections cannot be restored onto the
        rolled-back (earlier) platform state — monotonicity is enforced."""
        service, _ = _service()
        base = service.snapshot()
        service.inject([0, 1])
        later = service.snapshot()
        service.restore(base)
        with pytest.raises(SnapshotError):
            service.restore(later)

    def test_restore_rolls_back_injection_quota(self):
        """Regression: episode resets undo injections, so they must also
        refund the injection quota — otherwise multi-episode runs crash."""
        service, _ = _service(
            ServingConfig(default_policy=QuotaPolicy(max_total_injections=3))
        )
        base = service.snapshot()
        for _ in range(3):  # exhaust the quota
            service.inject([0, 1])
        service.restore(base)
        for _ in range(3):  # a fresh episode gets a fresh quota
            service.inject([0, 1])

    def test_evaluator_client_exempt_from_default_policy(self):
        """Regression: measure()'s ground-truth reads go through the
        'evaluator' client, which must stay unlimited even when the
        config's default policy is restrictive."""
        service, _ = _service(
            ServingConfig(default_policy=QuotaPolicy(max_queries_per_window=1))
        )
        service.query([0], k=3, client="organic")
        with pytest.raises(RateLimitExceededError):
            service.query([0], k=3, client="organic")
        for _ in range(5):
            service.query([0], k=3, client="evaluator", use_cache=False)

    def test_cached_lists_cannot_be_mutated_in_place(self):
        """Regression: a caller mutating a served list must not corrupt
        later cache hits (stored entries are private read-only copies)."""
        service, model = _service(ServingConfig(cache_capacity=8))
        first = service.query([0], k=4)[0]
        first_copy = first.copy()
        try:
            first[0] = 99  # fresh miss result may be writable; hits are not
        except ValueError:
            pass
        hit = service.query([0], k=4)[0]
        np.testing.assert_array_equal(hit, first_copy)
        np.testing.assert_array_equal(hit, model.top_k(0, 4))
        with pytest.raises(ValueError):
            hit[0] = 99

    def test_double_restore_is_idempotent(self):
        service, model = _service(ServingConfig(cache_capacity=8))
        base = service.snapshot()
        truth = model.top_k(0, 4)
        for _ in range(4):
            service.inject([7, 8])
        service.restore(base)
        service.restore(base)
        assert service.n_users == 6
        np.testing.assert_array_equal(service.query([0], 4)[0], truth)


class TestBlackBoxFacade:
    def test_facade_builds_transparent_service(self):
        model = PopularityRecommender().fit(_tiny())
        bb = BlackBoxRecommender(model)
        assert bb.service.cache_stats() is None
        assert bb.service.shards[0].limiter.default_policy.unlimited

    def test_facade_rejects_mismatched_service(self):
        model_a = PopularityRecommender().fit(_tiny())
        model_b = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(model_a)
        with pytest.raises(ConfigurationError):
            BlackBoxRecommender(model_b, service=service)

    def test_query_log_wall_times_and_batches(self):
        model = PopularityRecommender().fit(_tiny())
        bb = BlackBoxRecommender(model)
        bb.query([0, 1, 2], k=3)
        bb.query([4], k=3)
        assert bb.log.batch_sizes == [3, 1]
        assert len(bb.log.wall_times) == 2
        summary = bb.log.summary()
        assert summary["n_queries"] == 2.0
        assert summary["max_batch_size"] == 3.0
        bb.log.reset()
        assert bb.log.wall_times == [] and bb.log.batch_sizes == []

    def test_restore_after_many_injections_filters_ids(self):
        model = PopularityRecommender().fit(_tiny())
        bb = BlackBoxRecommender(model)
        early = bb.inject([0, 1])
        snap = bb.snapshot()
        late_ids = [bb.inject([2, 3]) for _ in range(25)]
        bb.restore(snap)
        assert bb.log.injected_user_ids == [early]
        assert bb.n_users == 7
        assert all(u >= bb.n_users for u in late_ids)

    def test_double_restore_through_facade(self):
        model = PopularityRecommender().fit(_tiny())
        bb = BlackBoxRecommender(model)
        snap = bb.snapshot()
        for _ in range(5):
            bb.inject([7])
        bb.restore(snap)
        bb.restore(snap)
        assert bb.n_users == 6
        assert bb.log.n_injections == 0

    def test_attacker_rate_limit_applies_through_facade(self):
        model = PopularityRecommender().fit(_tiny())
        service = ShardedRecommendationService(
            model,
            config=ServingConfig(
                client_policies=(("attacker", QuotaPolicy(max_users_per_query=2)),)
            ),
        )
        bb = BlackBoxRecommender(model, service=service)
        bb.query([0, 1], k=3)
        with pytest.raises(RateLimitExceededError):
            bb.query([0, 1, 2], k=3)
