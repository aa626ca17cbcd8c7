"""Engine-conformance suite: one contract, every execution engine.

This is the single source of truth for what an execution engine must
preserve (it replaces the ad-hoc per-engine parity tests that grew one
engine at a time).  For every recommender family, every shard count in
{1, 2, 4, 7}, and every engine in ``ENGINES`` — the serial loop, the
thread pool, and the process pool with replicated shard state — a seeded
interleaving of queries and injections must produce, versus the
single-cache reference (``tests/reference_service.py``):

* **element-wise identical top-k lists** (same items, same order);
* **identical merged ``ServiceStats`` counters** (requests, users
  served, users scored, injections) — the scoring fan-out is an engine
  invariant, not a scheduling accident;
* **identical cache hit/miss/invalidation counters** — under the
  process engine these accrue inside worker replicas and are mirrored
  back, so this pins the whole replication/mirroring pipeline, not just
  the merge.

Any future engine (async, distributed) drops into this class by being
added to ``repro.serving.ENGINES``.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.recsys import (
    ItemKNN,
    MatrixFactorization,
    NeuralCF,
    PinSageRecommender,
    PopularityRecommender,
)
from repro.serving import (
    ENGINES,
    RolloutGuard,
    ServingConfig,
    ShardedRecommendationService,
)
from repro.utils.rng import make_rng
from reference_service import ReferenceService

N_USERS = 40
N_ITEMS = 50
SHARD_COUNTS = (1, 2, 4, 7)
MODEL_NAMES = ("popularity", "itemknn", "mf", "neural_cf", "pinsage")


def _dataset() -> InteractionDataset:
    rng = make_rng(711)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 10)), replace=False)]
        for _ in range(N_USERS)
    ]
    return InteractionDataset(profiles, n_items=N_ITEMS, name="conformance")


@pytest.fixture(scope="module")
def fitted_models():
    """All five recommenders, fitted once on the same tiny dataset."""
    dataset = _dataset()
    return {
        "popularity": PopularityRecommender().fit(dataset.copy()),
        "itemknn": ItemKNN().fit(dataset.copy()),
        "mf": MatrixFactorization(n_factors=4, n_epochs=5, seed=3).fit(dataset.copy()),
        "neural_cf": NeuralCF(n_factors=4, n_epochs=1, seed=3).fit(dataset.copy()),
        "pinsage": PinSageRecommender(
            n_factors=8, n_epochs=6, patience=3, seed=3
        ).fit(dataset.copy()),
    }


def _script(seed: int, n_ops: int = 24) -> list[tuple]:
    """Seeded interleaving of queries (dups allowed, injected users too)
    and injections; identical for every deployment by construction."""
    rng = make_rng(seed)
    ops: list[tuple] = []
    n_users = N_USERS
    for _ in range(n_ops):
        if rng.random() < 0.3:
            profile = rng.choice(N_ITEMS, size=int(rng.integers(2, 6)), replace=False)
            ops.append(("inject", [int(v) for v in profile]))
            n_users += 1
        else:
            batch = int(rng.integers(1, 6))
            users = [int(v) for v in rng.integers(0, n_users, size=batch)]
            ops.append(("query", users, int(rng.integers(1, 6))))
    return ops


def _replay(service, ops) -> list[list[list[int]]]:
    outputs = []
    for op in ops:
        if op[0] == "inject":
            service.inject(op[1])
        else:
            outputs.append([items.tolist() for items in service.query(op[1], op[2])])
    return outputs


def _stats_counters(service) -> tuple[int, int, int, int]:
    """The merged ServiceStats counters an engine must not perturb."""
    stats = service.stats
    return (
        stats.n_requests,
        stats.n_users_served,
        stats.n_users_scored,
        stats.n_injections,
    )


def _cache_counters(service) -> tuple[int, int, int] | None:
    """Merged cache counters (evictions excluded: per-shard LRU order is
    the one documented divergence from a single global cache, and the
    conformance script never reaches capacity pressure anyway)."""
    stats = service.cache_stats()
    if stats is None:
        return None
    return (stats.hits, stats.misses, stats.invalidations)


@pytest.fixture(scope="module")
def single_reference(fitted_models):
    """Memoised single-cache reference expectations per (model, ttl) pair.

    Returns ``(ops, base_snapshot, outputs, stats, cache)``; the model is
    restored to ``base_snapshot`` before the getter returns, so the
    caller always starts from the reference state.
    """
    memo: dict[tuple[str, int], tuple] = {}

    def get(model_name: str, ttl_injections: int):
        key = (model_name, ttl_injections)
        if key not in memo:
            config = ServingConfig(cache_capacity=256, ttl_injections=ttl_injections)
            ops = _script(seed=100 + ttl_injections)
            single = ReferenceService(fitted_models[model_name], config=config)
            base = single.snapshot()
            outputs = _replay(single, ops)
            expectation = (ops, base, outputs, _stats_counters(single), _cache_counters(single))
            single.restore(base)
            memo[key] = expectation
        return memo[key]

    return get


@pytest.mark.timeout(600)
@pytest.mark.parametrize("engine", ENGINES, ids=[f"engine_{e}" for e in ENGINES])
@pytest.mark.parametrize("ttl_injections", [0, 2], ids=["strict", "ttl2"])
@pytest.mark.parametrize("model_name", MODEL_NAMES)
class TestEngineConformance:
    def test_topk_stats_and_cache_conform(
        self, fitted_models, single_reference, model_name, ttl_injections, engine
    ):
        model = fitted_models[model_name]
        ops, base, expected, expected_stats, expected_cache = single_reference(
            model_name, ttl_injections
        )
        config = ServingConfig(cache_capacity=256, ttl_injections=ttl_injections)
        for n_shards in SHARD_COUNTS:
            with ShardedRecommendationService(
                model, n_shards=n_shards, config=config, engine=engine
            ) as sharded:
                got = _replay(sharded, ops)
                assert got == expected, (
                    f"{model_name}: top-k diverged at {n_shards} shards under {engine}"
                )
                assert _stats_counters(sharded) == expected_stats, (
                    f"{model_name}: ServiceStats diverged at {n_shards} shards "
                    f"under {engine}"
                )
                assert _cache_counters(sharded) == expected_cache, (
                    f"{model_name}: cache counters diverged at {n_shards} shards "
                    f"under {engine}"
                )
                sharded.restore(base)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("engine", ENGINES, ids=[f"engine_{e}" for e in ENGINES])
def test_uncached_conformance(fitted_models, engine):
    """Transparent posture (no cache): fan-out/merge alone is invisible,
    whichever engine schedules it."""
    model = fitted_models["itemknn"]
    ops = _script(seed=13)
    single = ReferenceService(model)
    base = single.snapshot()
    expected = _replay(single, ops)
    expected_stats = _stats_counters(single)
    single.restore(base)
    with ShardedRecommendationService(model, n_shards=4, engine=engine) as sharded:
        assert _replay(sharded, ops) == expected
        assert _stats_counters(sharded) == expected_stats
        sharded.restore(base)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("engine", ENGINES, ids=[f"engine_{e}" for e in ENGINES])
def test_replay_after_restore_conforms(fitted_models, engine):
    """restore → identical replay, on every engine (process resync included)."""
    model = fitted_models["popularity"]
    config = ServingConfig(cache_capacity=64, ttl_injections=1)
    ops = _script(seed=21)
    with ShardedRecommendationService(
        model, n_shards=4, config=config, engine=engine
    ) as sharded:
        base = sharded.snapshot()
        first = _replay(sharded, ops)
        first_stats = _stats_counters(sharded)
        sharded.restore(base)
        assert _replay(sharded, ops) == first
        assert _stats_counters(sharded) == first_stats
        sharded.restore(base)


# -- versioned rollout conformance --------------------------------------------
#
# The rollout protocol's two exactness contracts, pinned for every engine
# under both replication modes (replication only changes where replica
# state physically lives for the process engine; in-memory engines accept
# and ignore the knob, keeping the matrix uniform):
#
# * a **completed** rollout is invisible: the promoted fleet serves
#   byte-identical lists — with identical stats and cache counters — to a
#   fresh single service built on the retrained model;
# * a **rolled-back** rollout is invisible the other way: the fleet's
#   observable state is exactly the pre-stage state (staging and the
#   canary window touch no durable shard state).

N_ROLLOUT_SHARDS = 3


def _organic_interactions(model, n_users: int = 12) -> list[tuple[int, int]]:
    """One new (user, item) interaction per user, deterministically."""
    interactions = []
    for user in range(n_users):
        profile = model.dataset.user_profile_set(user)
        item = next(i for i in range(N_ITEMS) if i not in profile)
        interactions.append((user, item))
    return interactions


def _retrained_candidate(model):
    """A deep-copied candidate advanced with partial_fit (serving model untouched)."""
    candidate = copy.deepcopy(model)
    candidate.partial_fit(_organic_interactions(model))
    return candidate


def _fleet_observables(service) -> dict:
    """Durable fleet state a rollback must leave untouched."""
    return {
        "stats": _stats_counters(service),
        "cache": _cache_counters(service),
        "rollout_counters": (
            service.stats.n_canary_users,
            service.stats.n_shadow_users,
            service.stats.n_shadow_agree,
        ),
        "shards": service.shard_summaries(),
        "active_version": service.active_version,
        "staged": service.versions.staged,
        "epoch": service.epoch,
        "n_users": service.n_users,
    }


@pytest.mark.timeout(600)
@pytest.mark.parametrize("engine", ENGINES, ids=[f"engine_{e}" for e in ENGINES])
@pytest.mark.parametrize("replication", ["sliced", "full"])
class TestRolloutConformance:
    def _service(self, model, replication, engine):
        config = ServingConfig(cache_capacity=256, replication=replication)
        return ShardedRecommendationService(
            model, n_shards=N_ROLLOUT_SHARDS, config=config, engine=engine
        )

    def test_promoted_rollout_matches_fresh_single_service(
        self, fitted_models, replication, engine
    ):
        """Window semantics + promote ≡ fresh single service on the candidate."""
        model = fitted_models["mf"]
        base = model.snapshot()
        try:
            with self._service(model, replication, engine) as sharded:
                sharded.query(list(range(N_USERS)), k=5)  # pre-window traffic
                candidate = _retrained_candidate(sharded.model)
                reference_model = pickle.loads(pickle.dumps(candidate))
                version = sharded.stage_rollout(
                    candidate,
                    canary_shard=1,
                    guard=RolloutGuard(min_shadow_users=10**6),  # gate can't fire
                )
                assert version == 1 and sharded.rollout_active

                # During the window: canary users serve the staged model,
                # shadow users the active one — element-wise.
                users = list(range(N_USERS))
                window = sharded.query(users, k=5)
                staged_ref = reference_model.top_k_batch(users, 5)
                active_ref = sharded.model.top_k_batch(users, 5)
                for position, user in enumerate(users):
                    expected = (
                        staged_ref[position]
                        if sharded.shard_of(user) == 1
                        else active_ref[position]
                    )
                    np.testing.assert_array_equal(window[position], expected)
                status = sharded.rollout_status()
                assert status["n_canary_users"] > 0
                assert status["n_shadow_users"] > 0

                assert sharded.promote_rollout() == 1
                assert sharded.active_version == 1 and not sharded.rollout_active

                # Post-promote the fleet must behave exactly like a fresh
                # single service on the retrained model: lists, stats,
                # and cache counters, for a full query/inject script.
                ops = _script(seed=37)
                single = ReferenceService(
                    reference_model,
                    config=ServingConfig(cache_capacity=256),
                )
                expected_outputs = _replay(single, ops)
                got_outputs = _replay(sharded, ops)
                assert got_outputs == expected_outputs, (
                    f"promoted fleet diverged from fresh single service "
                    f"under {engine}/{replication}"
                )
                assert _stats_counters(sharded) == _stats_counters(single)
                assert _cache_counters(sharded) == _cache_counters(single)
        finally:
            model.restore(base)

    def test_rolled_back_rollout_restores_pre_stage_fleet(
        self, fitted_models, replication, engine
    ):
        """Stage → rollback with no window traffic ≡ the window never opened."""
        model = fitted_models["mf"]
        base = model.snapshot()
        try:
            with self._service(model, replication, engine) as sharded:
                _replay(sharded, _script(seed=41, n_ops=10))
                captured = _fleet_observables(sharded)
                candidate = _retrained_candidate(sharded.model)
                sharded.stage_rollout(candidate, canary_shard=0)
                sharded.rollback_rollout(reason="conformance")
                assert _fleet_observables(sharded) == captured
                assert sharded.last_rollout_rollback == {
                    "version": 1,
                    "reason": "conformance",
                    "auto": False,
                }
        finally:
            model.restore(base)

    def test_canary_window_traffic_leaves_no_durable_trace(
        self, fitted_models, replication, engine
    ):
        """Window traffic, then rollback: the canary shard's durable state
        is exactly pre-stage (canary serving bypasses its cache and stats),
        rollout counters are zeroed, and served lists return to the active
        model's ground truth."""
        model = fitted_models["mf"]
        base = model.snapshot()
        try:
            with self._service(model, replication, engine) as sharded:
                users = list(range(N_USERS))
                canary_shard = 1
                canary_users = [u for u in users if sharded.shard_of(u) == canary_shard]
                assert canary_users  # the routing must actually exercise the canary
                before = _fleet_observables(sharded)
                candidate = _retrained_candidate(sharded.model)
                sharded.stage_rollout(
                    candidate,
                    canary_shard=canary_shard,
                    guard=RolloutGuard(min_shadow_users=10**6),
                )
                sharded.query(users, k=5)
                sharded.rollback_rollout()
                after = _fleet_observables(sharded)
                # The canary shard never recorded the window's traffic.
                assert (
                    after["shards"][canary_shard] == before["shards"][canary_shard]
                )
                # Window counters are gone with the window.
                assert after["rollout_counters"] == (0, 0, 0)
                assert after["active_version"] == 0 and after["staged"] is None
                # And the fleet serves the active model again, everywhere.
                served = sharded.query(users, k=5, use_cache=False)
                expected = sharded.model.top_k_batch(users, 5)
                for got, want in zip(served, expected):
                    np.testing.assert_array_equal(got, want)
        finally:
            model.restore(base)
