"""Serving-layer scenarios: stale feedback, throttling, sharded contention.

Runs the same naive promotion attack against four platform postures —
transparent, TTL-cached, rate-limited, and a sharded deployment under
bursty organic load — and prints what the attacker observes vs the
ground truth after each round of injections.

Usage::

    PYTHONPATH=src python examples/serving_scenarios.py
"""

from __future__ import annotations

from repro.attack import AttackEnvironment, create_pretend_users
from repro.data import SyntheticConfig, generate_cross_domain
from repro.errors import RateLimitExceededError
from repro.recsys import BlackBoxRecommender, PopularityRecommender
from repro.serving import (
    BackgroundTraffic,
    QuotaPolicy,
    ServingConfig,
    ShardedRecommendationService,
)


def build_platform(dataset, serving_config, n_shards=1, background=None, engine="serial"):
    model = PopularityRecommender().fit(dataset.copy())
    service = ShardedRecommendationService(
        model, n_shards=n_shards, config=serving_config, engine=engine
    )
    blackbox = BlackBoxRecommender(model, service=service)
    pretend = create_pretend_users(
        blackbox, dataset.popularity(), n_users=10, profile_length=6, seed=7
    )
    return AttackEnvironment(
        blackbox, target_item=target, pretend_user_ids=pretend,
        budget=24, query_interval=2, reward_k=10, success_threshold=None,
        background=background,
    )


def run(env, label):
    print(f"\n--- {label} ---")
    while not env.done:
        try:
            outcome = env.step([target])  # maximal push: single-item profiles
        except RateLimitExceededError as exc:
            print(f"  injection denied: {exc}")
            break
        observed = "-" if outcome.reward is None else f"{outcome.reward:.2f}"
        truth = env.measure()  # evaluation-side: fresh, budget-free
        print(
            f"  step {env.steps_taken:2d}: observed HR={observed:>4s}  "
            f"ground truth HR={truth:.2f}  "
            f"(throttled rounds so far: {env.trace.n_throttled_queries})"
        )
    service = env.blackbox.service
    if hasattr(service, "close"):
        service.close()  # release threaded-engine workers, if any


if __name__ == "__main__":
    config = SyntheticConfig(
        n_universe_items=120, n_target_items=80, n_source_items=90,
        n_overlap_items=60, n_target_users=80, n_source_users=150,
        target_profile_mean=14.0, source_profile_mean=18.0,
        softmax_temperature=0.55, popularity_weight=0.35,
        popularity_exponent=0.8, rating_keep_probability_scale=4.0,
        interest_drift=0.2, name="serving-demo",
    )
    dataset = generate_cross_domain(config, seed=13).target
    target = int(dataset.popularity().argmin())  # the coldest item

    run(build_platform(dataset, None), "transparent platform (seed behaviour)")
    run(
        build_platform(dataset, ServingConfig(cache_capacity=256, ttl_injections=6)),
        "TTL cache: feedback lags injections by up to 6",
    )
    run(
        build_platform(
            dataset,
            ServingConfig(
                client_policies=(
                    ("attacker", QuotaPolicy(max_total_injections=16)),
                )
            ),
        ),
        "injection throttle: quota ends the attack early",
    )
    run(
        build_platform(
            dataset,
            ServingConfig(cache_capacity=256, ttl_injections=4),
            n_shards=4,
            background=BackgroundTraffic(workload="diurnal_bursty", seed=5),
        ),
        "4-shard deployment, TTL cache, bursty organic contention",
    )
    # Same deployment on the thread-parallel engine: one worker per shard
    # resolves the slices concurrently, with identical served results.
    run(
        build_platform(
            dataset,
            ServingConfig(cache_capacity=256, ttl_injections=4),
            n_shards=4,
            background=BackgroundTraffic(workload="diurnal_bursty", seed=5),
            engine="threaded",
        ),
        "4-shard deployment on the threaded execution engine",
    )
    # And on the process engine: each shard's state is replicated into a
    # worker process and kept in lockstep by epoch-stamped replication
    # events (every injection is acknowledged by every replica before the
    # next query) — still identical served results, now past the GIL.
    run(
        build_platform(
            dataset,
            ServingConfig(cache_capacity=256, ttl_injections=4),
            n_shards=4,
            background=BackgroundTraffic(workload="diurnal_bursty", seed=5),
            engine="process",
        ),
        "4-shard deployment on the process execution engine",
    )
