"""The attack MDP: stepping, query rounds, terminal conditions, resets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import AttackEnvironment, create_pretend_users
from repro.errors import BudgetExhaustedError, ConfigurationError
from repro.recsys import BlackBoxRecommender, PopularityRecommender
from repro.serving import QuotaPolicy, ServingConfig, ShardedRecommendationService


@pytest.fixture
def env_setup(tiny_dataset):
    model = PopularityRecommender().fit(tiny_dataset.copy())
    bb = BlackBoxRecommender(model)
    pretend = create_pretend_users(bb, tiny_dataset.popularity(), n_users=4,
                                   profile_length=3, seed=5)
    env = AttackEnvironment(bb, target_item=7, pretend_user_ids=pretend,
                            budget=6, query_interval=3, reward_k=3,
                            success_threshold=None)
    return env, bb


class TestConstruction:
    def test_requires_pretend_users(self, tiny_dataset):
        model = PopularityRecommender().fit(tiny_dataset.copy())
        bb = BlackBoxRecommender(model)
        with pytest.raises(ConfigurationError):
            AttackEnvironment(bb, 0, [], budget=5)

    def test_rejects_bad_target(self, tiny_dataset):
        model = PopularityRecommender().fit(tiny_dataset.copy())
        bb = BlackBoxRecommender(model)
        with pytest.raises(ConfigurationError):
            AttackEnvironment(bb, 99, [0], budget=5)

    def test_rejects_bad_interval(self, env_setup, tiny_dataset):
        model = PopularityRecommender().fit(tiny_dataset.copy())
        bb = BlackBoxRecommender(model)
        with pytest.raises(ConfigurationError):
            AttackEnvironment(bb, 0, [0], budget=5, query_interval=0)


class TestStepping:
    def test_rewards_only_on_query_rounds(self, env_setup):
        env, _ = env_setup
        outcomes = [env.step([7, 0]) for _ in range(6)]
        rewards = [o.reward for o in outcomes]
        assert rewards[0] is None and rewards[1] is None
        assert rewards[2] is not None  # 3rd injection = query round
        assert rewards[5] is not None  # budget exhausted = final query

    def test_done_at_budget(self, env_setup):
        env, _ = env_setup
        for i in range(6):
            outcome = env.step([7])
        assert outcome.done
        assert env.done

    def test_step_after_done_raises(self, env_setup):
        env, _ = env_setup
        for _ in range(6):
            env.step([7])
        with pytest.raises(BudgetExhaustedError):
            env.step([7])

    def test_trace_records_profiles_and_users(self, env_setup):
        env, _ = env_setup
        env.step([7, 0], selected_user=13)
        env.step([7], selected_user=14)
        assert env.trace.injected_profiles == [(7, 0), (7,)]
        assert env.trace.selected_users == [13, 14]
        assert env.trace.n_injected == 2
        assert env.trace.mean_profile_length() == 1.5

    def test_success_terminates_early(self, tiny_dataset):
        model = PopularityRecommender().fit(tiny_dataset.copy())
        bb = BlackBoxRecommender(model)
        pretend = create_pretend_users(bb, tiny_dataset.popularity(), n_users=2,
                                       profile_length=2, seed=5)
        env = AttackEnvironment(bb, 7, pretend, budget=30, query_interval=1,
                                reward_k=3, success_threshold=0.5)
        # Popularity model: repeatedly injecting the target rockets it to top-3.
        steps = 0
        while not env.done:
            env.step([7])
            steps += 1
        assert steps < 30  # stopped before the budget

    def test_reward_reflects_promotion(self, env_setup):
        env, _ = env_setup
        final = None
        while not env.done:
            final = env.step([7])
        # After 6 injections item 7 has count 6+1 > any organic item count.
        assert final.hit_ratio == 1.0


class TestReset:
    def test_reset_restores_platform(self, env_setup):
        env, bb = env_setup
        users_before = bb.n_users
        for _ in range(3):
            env.step([7])
        env.reset()
        assert bb.n_users == users_before
        assert env.trace.n_injected == 0
        assert not env.done

    def test_episodes_are_reproducible_after_reset(self, env_setup):
        env, _ = env_setup
        rewards_a = [env.step([7, 1]).reward for _ in range(6)]
        env.reset()
        rewards_b = [env.step([7, 1]).reward for _ in range(6)]
        assert rewards_a == rewards_b

    def test_measure_does_not_consume_profile_budget(self, env_setup):
        env, _ = env_setup
        before = env.budget.profiles_used
        env.measure()
        assert env.budget.profiles_used == before

    def test_measure_is_budget_free_by_default(self, env_setup):
        """Regression: out-of-band measurements must not spend query budget."""
        env, _ = env_setup
        for _ in range(5):
            env.measure()
        assert env.budget.queries_used == 0
        # The opt-in path models a self-monitoring attacker and is counted.
        env.measure(count_budget=True)
        assert env.budget.queries_used == 1

    def test_measure_matches_step_feedback(self, env_setup):
        """The budget-free measurement reads the same ground truth."""
        env, _ = env_setup
        outcome = None
        for _ in range(3):
            outcome = env.step([7, 0])
        assert outcome.hit_ratio == env.measure()


def _env_with_serving(tiny_dataset, serving_config, **env_kwargs):
    model = PopularityRecommender().fit(tiny_dataset.copy())
    service = ShardedRecommendationService(model, config=serving_config)
    bb = BlackBoxRecommender(model, service=service)
    pretend = create_pretend_users(bb, tiny_dataset.popularity(), n_users=4,
                                   profile_length=3, seed=5)
    defaults = dict(budget=9, query_interval=3, reward_k=3, success_threshold=None)
    defaults.update(env_kwargs)
    return AttackEnvironment(bb, target_item=7, pretend_user_ids=pretend, **defaults), bb


class TestServingScenarios:
    """The new scenario axes: stale feedback and throttled attackers."""

    def test_stale_cache_delays_attack_feedback(self, tiny_dataset):
        """With a TTL cache the attacker's reward lags reality; the
        out-of-band measurement sees the promotion immediately."""
        env, _ = _env_with_serving(
            tiny_dataset,
            ServingConfig(cache_capacity=64, ttl_injections=50),
            query_interval=1,
        )
        # Warm the cache with the pre-attack lists (reward query round 1).
        first = env.step([7])
        assert first.hit_ratio is not None
        stale_hr = first.hit_ratio
        for _ in range(5):
            outcome = env.step([7])
        # Served from cache: still the pre-attack hit ratio ...
        assert outcome.hit_ratio == stale_hr == 0.0
        # ... while ground truth already moved (6 injections of a 10-item
        # catalog's coldest item make it chart-topping for k=3).
        assert env.measure() == 1.0

    def test_strict_cache_keeps_feedback_fresh(self, tiny_dataset):
        env, _ = _env_with_serving(
            tiny_dataset,
            ServingConfig(cache_capacity=64, ttl_injections=0),
            query_interval=1,
        )
        final = None
        for _ in range(6):
            final = env.step([7])
        assert final.hit_ratio == env.measure() == 1.0

    def test_throttled_query_round_yields_no_feedback(self, tiny_dataset):
        """A denied query round is recorded, costs nothing, ends nothing."""
        env, _ = _env_with_serving(
            tiny_dataset,
            ServingConfig(
                client_policies=(
                    # One query admitted per huge window: pretend-user reward
                    # queries after the first are throttled.
                    ("attacker", QuotaPolicy(max_queries_per_window=1,
                                             window_seconds=1e9)),
                )
            ),
            query_interval=1,
        )
        first = env.step([7])
        assert first.reward is not None
        queries_after_first = env.budget.queries_used
        second = env.step([7])
        assert second.reward is None and not second.done
        assert env.trace.n_throttled_queries == 1
        # Regression: a denied query must not spend attacker query budget.
        assert env.budget.queries_used == queries_after_first
        # Evaluation-side measurement is exempt from the attacker's quota.
        assert env.measure() >= 0.0

    def test_injection_quota_surfaces_to_attacker(self, tiny_dataset):
        from repro.errors import RateLimitExceededError

        env, _ = _env_with_serving(
            tiny_dataset,
            ServingConfig(
                client_policies=(
                    # Pretend users consume 4 of the 6 injections.
                    ("attacker", QuotaPolicy(max_total_injections=6)),
                )
            ),
        )
        env.step([7])
        env.step([7])
        with pytest.raises(RateLimitExceededError):
            env.step([7])
