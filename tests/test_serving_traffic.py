"""Traffic simulator: determinism, report contents, limits, invalidation."""

from __future__ import annotations

import pytest

from repro.data import InteractionDataset
from repro.errors import ConfigurationError
from repro.recsys import PopularityRecommender
from repro.serving import (
    QuotaPolicy,
    ServingConfig,
    ShardedRecommendationService,
    TrafficPattern,
    TrafficSimulator,
    latency_breakdown,
    latency_percentiles,
)


def _service(config=None):
    profiles = [[0, 1, 2], [2, 3, 4], [5, 6], [0, 4, 7, 8], [1, 5, 9], [3, 6, 8]]
    model = PopularityRecommender().fit(InteractionDataset(profiles, n_items=10))
    return ShardedRecommendationService(model, config=config)


class TestPatternValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            TrafficPattern(n_requests=0)
        with pytest.raises(ConfigurationError):
            TrafficPattern(min_batch=3, max_batch=2)
        with pytest.raises(ConfigurationError):
            TrafficPattern(zipf_exponent=-1.0)


class TestReplay:
    def test_report_accounts_every_request(self):
        service = _service()
        report = TrafficSimulator(TrafficPattern(n_requests=40, k=3, seed=4)).run(service)
        assert report.n_requests == 40
        assert report.n_users_served >= 40
        assert report.n_rate_limited == 0
        assert report.requests_per_s > 0
        assert report.latency["p95_ms"] >= report.latency["p50_ms"]
        assert report.cache_hit_rate is None  # no cache configured

    def test_user_stream_is_deterministic(self):
        pattern = TrafficPattern(n_requests=30, k=3, seed=9)
        served_a = TrafficSimulator(pattern).run(_service()).n_users_served
        served_b = TrafficSimulator(pattern).run(_service()).n_users_served
        assert served_a == served_b

    def test_cache_earns_hits_under_zipf_load(self):
        service = _service(ServingConfig(cache_capacity=64))
        report = TrafficSimulator(
            TrafficPattern(n_requests=120, k=3, zipf_exponent=1.3, seed=2)
        ).run(service)
        assert report.cache_hit_rate > 0.3
        assert report.n_users_scored < report.n_users_served

    def test_background_injections_invalidate(self):
        service = _service(ServingConfig(cache_capacity=64))
        report = TrafficSimulator(
            TrafficPattern(n_requests=40, k=3, seed=5, inject_every=10)
        ).run(service)
        assert report.n_injections == 4
        assert service.stats.n_injections == 4
        # strict invalidation: every injection flushed the cache
        assert service.cache_stats().invalidations > 0

    def test_rate_limited_requests_are_counted_not_raised(self):
        service = _service(
            ServingConfig(default_policy=QuotaPolicy(max_total_injections=2))
        )
        report = TrafficSimulator(
            TrafficPattern(n_requests=40, k=3, seed=5, inject_every=10)
        ).run(service)
        assert report.n_injections == 2
        assert report.n_rate_limited == 2


class TestLatencyPercentiles:
    def test_empty_input(self):
        assert latency_percentiles([]) == {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}

    def test_converts_to_ms(self):
        out = latency_percentiles([0.001] * 10)
        assert out["p50_ms"] == pytest.approx(1.0)

    def test_breakdown_against_hand_computed_fixture(self):
        """Regression: flat percentiles over mixed batch sizes hid the
        cohort-size dependence.  Hand-computed expectations (numpy's
        linear interpolation) for a fixed wall-time/batch-size trace:

        size 1 -> [1ms, 3ms]:   p50 = 2.0,  p95 = 2.9,   p99 = 2.98
        size 4 -> [10, 20, 30]: p50 = 20.0, p95 = 29.0,  p99 = 29.8
        overall [1,3,10,20,30]: p50 = 10.0, p95 = 28.0,  p99 = 29.6
        """
        wall_s = [0.001, 0.003, 0.010, 0.020, 0.030]
        sizes = [1, 1, 4, 4, 4]
        out = latency_breakdown(wall_s, sizes)
        assert set(out) == {"overall", "by_batch_size"}
        assert set(out["by_batch_size"]) == {"1", "4"}
        one, four, overall = out["by_batch_size"]["1"], out["by_batch_size"]["4"], out["overall"]
        assert one["n_requests"] == 2.0
        assert one["p50_ms"] == pytest.approx(2.0)
        assert one["p95_ms"] == pytest.approx(2.9)
        assert one["p99_ms"] == pytest.approx(2.98)
        assert four["n_requests"] == 3.0
        assert four["p50_ms"] == pytest.approx(20.0)
        assert four["p95_ms"] == pytest.approx(29.0)
        assert four["p99_ms"] == pytest.approx(29.8)
        assert overall["n_requests"] == 5.0
        assert overall["p50_ms"] == pytest.approx(10.0)
        assert overall["p95_ms"] == pytest.approx(28.0)
        assert overall["p99_ms"] == pytest.approx(29.6)

    def test_breakdown_rejects_misaligned_inputs(self):
        with pytest.raises(ConfigurationError):
            latency_breakdown([0.001, 0.002], [1])

    def test_report_carries_per_batch_percentiles(self):
        service = _service()
        report = TrafficSimulator(
            TrafficPattern(n_requests=60, k=3, min_batch=1, max_batch=3, seed=8)
        ).run(service)
        assert report.latency_by_batch  # at least one batch-size bucket
        total = sum(entry["n_requests"] for entry in report.latency_by_batch.values())
        assert total == 60.0
        assert "latency_by_batch" in report.to_dict()


class TestWorkloadReplay:
    def test_workload_schedule_drives_request_count(self):
        pattern = TrafficPattern(
            k=3, workload="diurnal", base_rate=2.0, horizon_ticks=40, seed=3
        )
        report_a = TrafficSimulator(pattern).run(_service())
        report_b = TrafficSimulator(pattern).run(_service())
        assert report_a.n_requests == report_b.n_requests  # seeded schedule
        assert report_a.arrivals is not None
        assert report_a.arrivals["ticks"] == 40.0
        assert report_a.arrivals["total_arrivals"] == float(report_a.n_requests)

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ConfigurationError):
            TrafficPattern(workload="weekly")

    def test_sharded_replay_reports_shards(self):
        profiles = [[0, 1, 2], [2, 3, 4], [5, 6], [0, 4, 7, 8], [1, 5, 9], [3, 6, 8]]
        from repro.data import InteractionDataset
        from repro.recsys import PopularityRecommender

        model = PopularityRecommender().fit(InteractionDataset(profiles, n_items=10))
        service = ShardedRecommendationService(
            model, n_shards=3, config=ServingConfig(cache_capacity=32)
        )
        report = TrafficSimulator(
            TrafficPattern(n_requests=50, k=3, seed=6, workload="bursty")
        ).run(service)
        assert report.shards is not None and len(report.shards) == 3
        assert sum(s["n_users_served"] for s in report.shards) == report.n_users_served
        out = report.to_dict()
        assert "shards" in out

    def test_sharded_report_shards_are_per_run_deltas(self):
        """Regression: a second replay on the same service must not fold
        the first run's counters into its shard rows."""
        profiles = [[0, 1, 2], [2, 3, 4], [5, 6], [0, 4, 7, 8], [1, 5, 9], [3, 6, 8]]
        from repro.data import InteractionDataset
        from repro.recsys import PopularityRecommender

        model = PopularityRecommender().fit(InteractionDataset(profiles, n_items=10))
        service = ShardedRecommendationService(model, n_shards=2)
        pattern = TrafficPattern(n_requests=30, k=3, seed=6)
        first = TrafficSimulator(pattern).run(service)
        second = TrafficSimulator(pattern).run(service)
        for report in (first, second):
            assert sum(s["n_users_served"] for s in report.shards) == report.n_users_served
        # Same seeded stream, no cache: identical per-run rows.
        assert second.shards == first.shards
