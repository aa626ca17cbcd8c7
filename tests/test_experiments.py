"""Experiment harness: configs, runner, reporting (SMALL-scale integration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    METHOD_NAMES,
    ML10M_FX,
    ML20M_NF,
    SHARDS_BURST,
    SMALL,
    SMALL_STALE,
    format_metric_rows,
    format_table,
    format_table2,
    prepare_experiment,
    run_method,
    scaled_copy,
)
from repro.experiments.configs import ExperimentConfig
from repro.serving import ShardedRecommendationService


class TestConfigs:
    def test_canonical_configs_validate(self):
        for config in (ML10M_FX, ML20M_NF, SMALL):
            config.synthetic.validate()

    def test_ml20m_uses_deeper_tree(self):
        assert ML20M_NF.tree_depth > ML10M_FX.tree_depth  # paper: 6 vs 3

    def test_ml20m_source_much_larger(self):
        assert ML20M_NF.synthetic.n_source_users > 2 * ML10M_FX.synthetic.n_source_users

    def test_alignment_keys_differ(self):
        assert ML10M_FX.synthetic.align_by_year is False  # name-only (paper)
        assert ML20M_NF.synthetic.align_by_year is True  # name + year (paper)

    def test_stale_config_turns_serving_axes_on(self):
        assert SMALL.serving is None  # transparent platform (seed behaviour)
        serving = SMALL_STALE.serving
        assert serving is not None
        assert serving.cache_capacity > 0
        assert serving.ttl_injections > 0  # delayed-feedback axis
        policies = dict(serving.client_policies)
        assert not policies["attacker"].unlimited  # throttled-attacker axis

    def test_negatives_must_fit_catalog(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                name="bad",
                synthetic=SMALL.synthetic,
                n_negatives=SMALL.synthetic.n_target_items + 1,
            )

    def test_scaled_copy_overrides(self):
        copy = scaled_copy(SMALL, budget=5)
        assert copy.budget == 5
        assert copy.name == SMALL.name

    def test_shards_burst_config_turns_deployment_axes_on(self):
        assert SMALL.n_shards == 1 and SMALL.background_workload is None
        assert SHARDS_BURST.n_shards == 4
        assert SHARDS_BURST.shard_routing == "consistent"
        assert SHARDS_BURST.background_workload == "diurnal_bursty"
        assert SHARDS_BURST.serving.ttl_injections > 0

    def test_deployment_fields_validate(self):
        with pytest.raises(ConfigurationError):
            scaled_copy(SMALL, n_shards=0)
        with pytest.raises(ConfigurationError):
            scaled_copy(SMALL, shard_routing="ring")


class TestPreparedExperiment:
    def test_model_quality_above_random(self, small_prep):
        random_level = 10 / (SMALL.n_negatives + 1)
        assert small_prep.trained.test_metrics["hr@10"] > random_level

    def test_pretend_users_registered(self, small_prep):
        assert len(small_prep.pretend_user_ids) == SMALL.n_pretend_users
        assert small_prep.blackbox.n_users == len(small_prep.eval_users) + SMALL.n_pretend_users

    def test_target_items_cold_and_supported(self, small_prep):
        pop = small_prep.trained.train_dataset.popularity()
        for item in small_prep.target_items:
            assert pop[item] < SMALL.max_target_interactions
            assert small_prep.cross.source.users_with_item(int(item)).size >= SMALL.min_source_supporters


class TestRunMethod:
    def test_unknown_method_raises(self, small_prep):
        with pytest.raises(ConfigurationError):
            run_method(small_prep, "QuantumAttack")

    def test_without_attack_baseline(self, small_prep):
        outcome = run_method(small_prep, "WithoutAttack")
        assert outcome.mean_profile_length == 0.0
        assert set(outcome.per_item) == set(small_prep.target_items.tolist())
        assert 0.0 <= outcome.metrics["hr@20"] <= 1.0

    def test_platform_restored_between_methods(self, small_prep):
        users_before = small_prep.blackbox.n_users
        run_method(small_prep, "TargetAttack40")
        assert small_prep.blackbox.n_users == users_before

    def test_target_attack_beats_without(self, small_prep):
        without = run_method(small_prep, "WithoutAttack")
        ta40 = run_method(small_prep, "TargetAttack40")
        assert ta40.metrics["hr@20"] > without.metrics["hr@20"]

    def test_without_attack_deterministic(self, small_prep):
        a = run_method(small_prep, "WithoutAttack").metrics
        b = run_method(small_prep, "WithoutAttack").metrics
        assert a == b

    def test_budget_override(self, small_prep):
        outcome = run_method(small_prep, "RandomAttack", budget=3)
        # RandomAttack injects exactly `budget` profiles per item.
        assert outcome.mean_profile_length > 0

    def test_single_item_subset(self, small_prep):
        item = small_prep.target_items[:1]
        outcome = run_method(small_prep, "TargetAttack70", target_items=item)
        assert list(outcome.per_item) == [int(item[0])]

    def test_copyattack_records_episode_histories(self, small_prep):
        outcome = run_method(
            small_prep, "CopyAttack", target_items=small_prep.target_items[:1],
            n_episodes=2,
        )
        assert len(outcome.episode_histories) == 1
        assert len(outcome.episode_histories[0]) == 2


class TestStaleScenarioEndToEnd:
    """SMALL_STALE runs unmodified attack methods through the cached,
    throttled one-shard service."""

    @pytest.fixture(scope="class")
    def stale_prep(self):
        config = scaled_copy(
            SMALL_STALE,
            n_target_items=1,
            pinsage_kwargs={"n_factors": 8, "lr": 0.02, "n_epochs": 5, "patience": 5},
            mf_kwargs={"n_factors": 8, "n_epochs": 5},
        )
        return prepare_experiment(config)

    def test_platform_has_serving_posture(self, stale_prep):
        service = stale_prep.blackbox.service
        assert service.shards[0].cache is not None
        assert service.shards[0].cache.ttl_injections == SMALL_STALE.serving.ttl_injections
        assert not service.shards[0].limiter.policy_for("attacker").unlimited

    def test_attack_method_runs_under_stale_cache(self, stale_prep):
        outcome = run_method(stale_prep, "RandomAttack", budget=6)
        assert np.isfinite(outcome.metrics["hr@20"])
        service = stale_prep.blackbox.service
        # The attack really drove the platform (the attacker-side query
        # log deliberately survives episode resets) ...
        assert stale_prep.blackbox.log.n_queries > 0
        # ... but the platform itself is reset clean: run_method restores
        # the episode snapshot, and restore leaves no serving counters
        # behind (the episode-reset invariant in test_serving_reset).
        assert service.cache_stats().lookups == 0
        assert service.stats.n_injections == 0
        # The cached posture is still live after the reset.
        service.query([0], k=5, client="evaluator")
        service.query([0], k=5, client="evaluator")
        assert service.cache_stats().hits > 0


class TestShardedScenarioEndToEnd:
    """SHARDS_BURST runs unmodified attack methods against a 4-shard
    deployment with organic background contention."""

    @pytest.fixture(scope="class")
    def sharded_prep(self):
        config = scaled_copy(
            SHARDS_BURST,
            n_target_items=1,
            pinsage_kwargs={"n_factors": 8, "lr": 0.02, "n_epochs": 5, "patience": 5},
            mf_kwargs={"n_factors": 8, "n_epochs": 5},
        )
        return prepare_experiment(config)

    def test_platform_is_sharded(self, sharded_prep):
        service = sharded_prep.blackbox.service
        assert isinstance(service, ShardedRecommendationService)
        assert service.n_shards == 4
        assert all(shard.cache is not None for shard in service.shards)

    def test_attack_method_runs_with_background_contention(self, sharded_prep):
        outcome = run_method(sharded_prep, "RandomAttack", budget=6)
        assert np.isfinite(outcome.metrics["hr@20"])
        service = sharded_prep.blackbox.service
        # The attack and its background traffic really went through the
        # platform (the attacker-side query log survives episode resets) ...
        assert sharded_prep.blackbox.log.n_queries > 0
        # ... but run_method's final reset left the deployment clean: no
        # shard counter, bus event, or cache stat from the run survives
        # (throughput/fan-out reports never double-count dead episodes).
        assert service.stats.n_injections == 0
        assert service.bus.events == [] and service.bus.n_deliveries == 0
        assert service.cache_stats().lookups == 0
        assert all(shard.stats.n_requests == 0 for shard in service.shards)
        # The invalidation bus still fans out to all four shards.
        base = service.snapshot()
        service.inject([0, 1, 2], client="evaluator")
        assert service.bus.n_deliveries == service.n_shards
        service.restore(base)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.2346" in text

    def test_format_metric_rows_with_extra(self):
        text = format_metric_rows(
            {"m1": {"hr@20": 0.5}},
            ["hr@20"],
            extra={"m1": 12.0},
            title="T",
        )
        assert "avg items/profile" in text
        assert "0.5000" in text

    def test_format_table2_handles_skipped(self):
        text = format_table2({"PolicyNetwork": None}, "ds")
        assert "PolicyNetwork" in text
        assert "nan" in text

    def test_method_names_cover_paper_table(self):
        for name in (
            "WithoutAttack", "RandomAttack", "TargetAttack40", "TargetAttack70",
            "TargetAttack100", "PolicyNetwork", "CopyAttack-Masking",
            "CopyAttack-Length", "CopyAttack",
        ):
            assert name in METHOD_NAMES
