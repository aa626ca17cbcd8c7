"""Cross-shard invalidation: no shard serves stale state out of contract.

The invalidation bus must deliver every injection to every shard: in
strict mode no shard may serve a cached top-k computed before the latest
injection, and in TTL mode no served entry's staleness may exceed
``ttl_injections`` — regardless of which shard held the entry.  A seeded
end-to-end attack run pins the contract at the behaviour level: the
reward stream an attacker observes through a sharded platform is
*exactly* the stream through the single-cache reference
(``tests/reference_service.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.environment import AttackEnvironment
from repro.data import InteractionDataset
from repro.recsys import BlackBoxRecommender, PopularityRecommender
from repro.serving import ServingConfig, ShardedRecommendationService
from repro.utils.rng import make_rng
from reference_service import ReferenceService

N_USERS = 36
N_ITEMS = 30


def _model():
    rng = make_rng(55)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 8)), replace=False)]
        for _ in range(N_USERS)
    ]
    return PopularityRecommender().fit(InteractionDataset(profiles, n_items=N_ITEMS))


def _warm_all_shards(service, k=5):
    """Query every base user so each shard holds cached entries."""
    service.query(list(range(N_USERS)), k)
    for shard in service.shards:
        if shard.stats.n_users_served:
            assert len(shard.cache) > 0


class TestStrictInvalidation:
    def test_injection_reaches_every_shard(self):
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=4, config=ServingConfig(cache_capacity=128)
        )
        _warm_all_shards(service)
        uid = service.inject([0, 1, 2])
        assert service.bus.events == [uid]
        assert service.bus.n_deliveries == 4
        for shard in service.shards:
            assert len(shard.cache) == 0  # strict: flushed everywhere
            assert shard.cache.version == 1

    def test_no_shard_serves_stale_after_injection(self):
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=4, config=ServingConfig(cache_capacity=128)
        )
        base = service.snapshot()
        k = 5
        service.query(list(range(N_USERS)), k)  # warm every shard
        # An injection that shifts popularity for every user's list.
        service.inject([3, 7, 9])
        served = service.query(list(range(N_USERS)), k)
        for user, items in zip(range(N_USERS), served):
            np.testing.assert_array_equal(items, model.top_k(user, k))
        service.restore(base)


class TestTTLInvalidation:
    def test_staleness_never_exceeds_ttl(self):
        ttl = 2
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=4, config=ServingConfig(cache_capacity=128, ttl_injections=ttl)
        )
        base = service.snapshot()
        k = 4
        users = list(range(N_USERS))
        service.query(users, k)
        rng = make_rng(9)
        for round_idx in range(6):
            service.inject([int(v) for v in rng.choice(N_ITEMS, size=3, replace=False)])
            service.query(users, k)
            for user in users:
                shard = service.shards[service.shard_of(user)]
                staleness = shard.cache.staleness(user, k, True)
                assert staleness is not None and staleness <= ttl
        # All shards share one staleness clock via the bus.
        versions = {shard.cache.version for shard in service.shards}
        assert versions == {6}
        service.restore(base)

    def test_entries_beyond_ttl_are_refreshed(self):
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=3, config=ServingConfig(cache_capacity=128, ttl_injections=1)
        )
        base = service.snapshot()
        service.query([0], k=3)
        scored_before = service.stats.n_users_scored
        service.inject([1, 2, 3])
        service.inject([4, 5, 6])  # entry for user 0 now two injections old
        service.query([0], k=3)
        assert service.stats.n_users_scored == scored_before + 1  # re-scored, not served stale
        service.restore(base)


class TestEndToEndAttackParity:
    """Seeded attack through the full environment, hit ratios pinned exactly."""

    def _attack_profiles(self, target_item, n_steps=12, seed=31):
        rng = make_rng(seed)
        profiles = []
        for _ in range(n_steps):
            extra = rng.choice(
                [i for i in range(N_ITEMS) if i != target_item], size=3, replace=False
            )
            profiles.append([int(target_item)] + [int(v) for v in extra])
        return profiles

    def _run_env(self, service, model, target_item, profiles):
        blackbox = BlackBoxRecommender(model, service=service)
        env = AttackEnvironment(
            blackbox,
            target_item,
            pretend_user_ids=list(range(8)),
            budget=len(profiles),
            query_interval=3,
            reward_k=6,
            success_threshold=None,
        )
        rewards = []
        for profile in profiles:
            outcome = env.step(profile)
            if outcome.queried:
                rewards.append(outcome.reward)
        final = env.trace.final_hit_ratio
        measured = env.measure()
        env.reset()
        return rewards, final, measured

    def test_sharded_reward_stream_identical_to_single(self):
        model = _model()
        target_item = N_ITEMS - 1  # an unpopular item the attack promotes
        profiles = self._attack_profiles(target_item)
        config = ServingConfig(cache_capacity=128, ttl_injections=2)

        single = ReferenceService(model, config=config)
        rewards_single, final_single, measured_single = self._run_env(
            single, model, target_item, profiles
        )

        sharded = ShardedRecommendationService(model, n_shards=4, config=config)
        rewards_sharded, final_sharded, measured_sharded = self._run_env(
            sharded, model, target_item, profiles
        )

        # Exact parity: identical rewards on every query round, identical
        # final hit ratio, identical out-of-band ground truth.
        assert rewards_sharded == rewards_single
        assert final_sharded == final_single
        assert measured_sharded == measured_single

    def test_seeded_run_is_exactly_reproducible(self):
        """Regression pin: the same seeded run yields bitwise-equal hit
        ratios on a sharded platform, and the attack visibly moves them."""
        model = _model()
        target_item = N_ITEMS - 1
        profiles = self._attack_profiles(target_item)
        config = ServingConfig(cache_capacity=128, ttl_injections=2)
        runs = []
        for _ in range(2):
            sharded = ShardedRecommendationService(model, n_shards=4, config=config)
            runs.append(self._run_env(sharded, model, target_item, profiles))
        assert runs[0] == runs[1]
        rewards, final, measured = runs[0]
        assert len(rewards) == 4  # 12 steps, query every 3rd
        assert final == rewards[-1]
        assert final > 0.0  # the promotion attack moved the target item
        assert measured == final  # TTL horizon passed: feedback caught up
