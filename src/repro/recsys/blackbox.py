"""The black-box boundary: query access + injection, nothing else.

Section 3 of the paper defines the attacker's capabilities: *"we only have
the query access to the target model and each query feedback consists of
Top-k recommended items for specific users."*  Plus, of course, the
ability to register new users with chosen profiles (the injection).

:class:`BlackBoxRecommender` enforces that boundary in code: it wraps the
platform's :class:`~repro.serving.sharded.ShardedRecommendationService` and
exposes *only*

* :meth:`query` — top-k lists for given user ids (counted), and
* :meth:`inject` — add a new user profile (counted),

with snapshot/restore for episode resets.  Attack code must never touch
the wrapped model, so holding the attack to the black-box threat model is
a type-discipline matter rather than a reviewer's trust exercise.  Since
the facade fronts a real serving stack, the attacker also experiences
whatever the platform is configured with — result caching (possibly
stale), per-client rate limits, and online injection screening.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.recsys.base import Recommender
from repro.serving.sharded import ShardedRecommendationService

__all__ = ["BlackBoxRecommender", "QueryLog"]


@dataclass
class QueryLog:
    """Counters for attacker-side resource accounting.

    Beyond the paper's query/injection counts, each query records its wall
    time and batch size so attack runs and serving benchmarks report
    query-side cost uniformly (see :meth:`summary`).
    """

    n_queries: int = 0
    n_users_queried: int = 0
    n_injections: int = 0
    n_injected_interactions: int = 0
    injected_user_ids: list[int] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.n_queries = 0
        self.n_users_queried = 0
        self.n_injections = 0
        self.n_injected_interactions = 0
        self.injected_user_ids = []
        self.wall_times = []
        self.batch_sizes = []

    def summary(self) -> dict[str, float]:
        """Query-side cost summary in the same shape as ``ServiceStats``."""
        out: dict[str, float] = {
            "n_queries": float(self.n_queries),
            "n_users_queried": float(self.n_users_queried),
            "n_injections": float(self.n_injections),
            "n_injected_interactions": float(self.n_injected_interactions),
        }
        if self.wall_times:
            times = np.asarray(self.wall_times, dtype=np.float64)
            sizes = np.asarray(self.batch_sizes, dtype=np.float64)
            out["total_wall_s"] = float(times.sum())
            out["mean_wall_ms"] = float(times.mean() * 1e3)
            out["p50_wall_ms"] = float(np.percentile(times, 50) * 1e3)
            out["p95_wall_ms"] = float(np.percentile(times, 95) * 1e3)
            out["mean_batch_size"] = float(sizes.mean())
            out["max_batch_size"] = float(sizes.max())
        return out


class BlackBoxRecommender:
    """Query-only facade over the serving stack.

    Parameters
    ----------
    model:
        The fitted target recommender.
    service:
        Optional pre-configured :class:`ShardedRecommendationService`
        fronting ``model`` (shards / cache / rate limits / detector).
        When omitted, a transparent one-shard service is built — no
        cache, no limits — which is byte-for-byte the seed behaviour.
    client:
        The client identity under which the attacker's requests are rate
        limited.
    """

    def __init__(
        self,
        model: Recommender,
        service: ShardedRecommendationService | None = None,
        client: str = "attacker",
    ) -> None:
        if not model.is_fitted:
            raise ConfigurationError("black-box wrapper requires a fitted model")
        if service is None:
            service = ShardedRecommendationService(model)
        elif service.model is not model:
            raise ConfigurationError("service must front the same model instance")
        self._model = model
        self._service = service
        self.client = client
        self.log = QueryLog()

    @property
    def service(self) -> ShardedRecommendationService:
        """The serving stack (platform-side handle for stats/config)."""
        return self._service

    @property
    def n_items(self) -> int:
        """Catalog size (public knowledge on a real platform)."""
        return self._service.n_items

    @property
    def n_users(self) -> int:
        """Current user count, including injected users."""
        return self._service.n_users

    def query(self, user_ids: Sequence[int], k: int) -> list[np.ndarray]:
        """Top-``k`` recommendation lists for ``user_ids`` (one query per batch)."""
        if k <= 0:
            raise ConfigurationError("k must be positive")
        start = time.perf_counter()
        lists = self._service.query(user_ids, k, client=self.client)
        self.log.n_queries += 1
        self.log.n_users_queried += len(user_ids)
        self.log.wall_times.append(time.perf_counter() - start)
        self.log.batch_sizes.append(len(user_ids))
        return lists

    def inject(self, profile: Sequence[int]) -> int:
        """Register a new user with ``profile``; returns the platform user id."""
        user_id = self._service.inject(profile, client=self.client)
        self.log.n_injections += 1
        self.log.n_injected_interactions += len(profile)
        self.log.injected_user_ids.append(user_id)
        return user_id

    # -- episode management (attacker-side simulation control, not a platform API)
    def snapshot(self):
        """Capture platform state for an episode reset."""
        return (
            self._service.snapshot(),
            self.log.n_injections,
            self.log.n_injected_interactions,
        )

    def restore(self, snapshot) -> None:
        """Roll the platform back to a snapshot (drops later injections).

        The service verifies snapshot monotonicity — restoring is only
        legal onto a state with at least as many users as the snapshot
        recorded, and must land exactly on the recorded count — which
        makes double restores and restores after long injection runs
        well-defined instead of silently relying on id filtering.
        """
        service_snap, n_inj, n_int = snapshot
        self._service.restore(service_snap)
        n_users = self._service.n_users
        self.log.n_injections = n_inj
        self.log.n_injected_interactions = n_int
        self.log.injected_user_ids = [u for u in self.log.injected_user_ids if u < n_users]
