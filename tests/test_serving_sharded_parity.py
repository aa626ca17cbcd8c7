"""Parity harness: sharded serving properties beyond engine scheduling.

Engine-behaviour parity — element-wise identical top-k, merged
``ServiceStats``, and cache counters for every recommender × shard count
× execution engine — lives in the engine-conformance suite
(``tests/test_engine_conformance.py``), the single source of truth any
future engine drops into.  What remains here are the sharding properties
that are orthogonal to how slices execute: the routing scheme must not
be observable in served results, episode restores must reset every
shard's cache, and duplicate users in one request must dedup within
their owning shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.recsys import MatrixFactorization, PopularityRecommender
from repro.serving import ServingConfig, ShardedRecommendationService
from repro.utils.rng import make_rng
from reference_service import ReferenceService

N_USERS = 40
N_ITEMS = 50


def _dataset() -> InteractionDataset:
    rng = make_rng(711)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 10)), replace=False)]
        for _ in range(N_USERS)
    ]
    return InteractionDataset(profiles, n_items=N_ITEMS, name="parity")


@pytest.fixture(scope="module")
def fitted_models():
    dataset = _dataset()
    return {
        "popularity": PopularityRecommender().fit(dataset.copy()),
        "mf": MatrixFactorization(n_factors=4, n_epochs=5, seed=3).fit(dataset.copy()),
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


def test_consistent_hash_routing_parity(fitted_models):
    """The routing scheme must not be observable in served results."""
    model = fitted_models["mf"]
    config = ServingConfig(cache_capacity=256)
    ops = _script(seed=7)
    single = ReferenceService(model, config=config)
    base = single.snapshot()
    expected = _replay(single, ops)
    single.restore(base)
    for n_shards in (2, 7):
        sharded = ShardedRecommendationService(
            model, n_shards=n_shards, config=config, routing="consistent"
        )
        assert _replay(sharded, ops) == expected
        sharded.restore(base)


def test_restore_resets_every_shard(fitted_models):
    """After a restore, a replayed script yields the same outputs again."""
    model = fitted_models["popularity"]
    config = ServingConfig(cache_capacity=64, ttl_injections=1)
    ops = _script(seed=21)
    sharded = ShardedRecommendationService(model, n_shards=4, config=config)
    base = sharded.snapshot()
    first = _replay(sharded, ops)
    sharded.restore(base)
    assert _replay(sharded, ops) == first
    sharded.restore(base)
    for shard in sharded.shards:
        assert len(shard.cache) == 0


def test_duplicate_users_dedup_within_shard(fitted_models):
    """Duplicates of one user always land on one shard and cost one scoring."""
    model = fitted_models["popularity"]
    sharded = ShardedRecommendationService(
        model, n_shards=4, config=ServingConfig(cache_capacity=64)
    )
    lists = sharded.query([1, 1, 2, 1], k=3)
    assert len(lists) == 4
    np.testing.assert_array_equal(lists[0], lists[1])
    np.testing.assert_array_equal(lists[0], lists[3])
    assert sharded.stats.n_users_scored == 2
