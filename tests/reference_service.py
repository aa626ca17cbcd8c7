"""Single-deployment serving reference for the parity suites.

The smallest thing that serves the platform's observable contract: one
model, one :class:`~repro.serving.cache.TopKCache`,
:func:`~repro.serving.service.resolve_slice`, and request counters.
The engine-conformance, sharded-parity, and cross-shard invalidation
suites replay one script through it and through
:class:`~repro.serving.ShardedRecommendationService` at every shard count
and engine, and compare top-k lists, stats, and cache counters.

It has no quotas and no detector (the suites that use it run unlimited
clients), and its snapshots share the service's
``(model_snapshot, n_users)`` shape, so a snapshot taken here restores a
service fronting the same model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.serving import ServiceStats, ServingConfig, TopKCache, resolve_slice


class ReferenceService:
    """One cache in front of one model, with the service's query surface."""

    def __init__(self, model, config: ServingConfig | None = None) -> None:
        config = config if config is not None else ServingConfig()
        self.model = model
        self.cache = (
            TopKCache(
                capacity=config.cache_capacity,
                ttl_injections=config.ttl_injections,
                n_items=model.dataset.n_items,
            )
            if config.cache_capacity > 0
            else None
        )
        self.stats = ServiceStats()

    @property
    def n_items(self) -> int:
        return self.model.dataset.n_items

    @property
    def n_users(self) -> int:
        return self.model.dataset.n_users

    def query(
        self,
        user_ids: Sequence[int],
        k: int,
        exclude_seen: bool = True,
        client: str = "default",
        use_cache: bool = True,
    ) -> list[np.ndarray]:
        users = np.asarray(user_ids, dtype=np.int64)
        n_scored, results = resolve_slice(
            self.model, self.cache, users, k, exclude_seen, use_cache
        )
        self.stats.record_request(int(users.size), n_scored, 0.0)
        return list(results)

    def inject(self, profile: Sequence[int], client: str = "default") -> int:
        user_id = self.model.add_user(profile)
        self.stats.n_injections += 1
        if self.cache is not None:
            self.cache.note_injection()
        return user_id

    def cache_stats(self):
        return self.cache.stats if self.cache is not None else None

    def snapshot(self) -> tuple[object, int]:
        return self.model.snapshot(), self.model.dataset.n_users

    def restore(self, snapshot: tuple[object, int]) -> None:
        model_snapshot, _ = snapshot
        self.model.restore(model_snapshot)
        if self.cache is not None:
            self.cache.flush()
            self.cache.stats.reset()
        self.stats.reset()
