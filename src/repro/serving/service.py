"""Serving configuration, request accounting, and slice resolution.

The platform itself is
:class:`~repro.serving.sharded.ShardedRecommendationService`: one service
with ``n`` shards, defaulting to one shard on the serial engine.  This
module holds the pieces every deployment shares, including process-engine
replicas that import them without the coordinator:

* :class:`ServingConfig` — the declarative serving posture (cache size
  and staleness horizon, quota policies, detector mode, execution
  engine, replication mode);
* :class:`ServiceStats` — thread-safe per-request accounting, with
  denials split by cause;
* :func:`resolve_slice` — the single definition of how one slice of
  users is served: a batched cache pass, then one ``top_k_batch`` over
  the deduplicated misses.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.cache import TopKCache
from repro.serving.engine import ENGINES
from repro.serving.metrics import percentile_summary
from repro.serving.rate_limit import UNLIMITED, QuotaPolicy

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.recsys
    from repro.recsys.base import Recommender
    from repro.serving.profiling import StageTimers

__all__ = ["ServingConfig", "ServiceStats", "resolve_slice"]

_DETECTOR_MODES = ("off", "flag", "block")


@dataclass(frozen=True)
class ServingConfig:
    """Declarative description of one serving posture.

    The default posture is transparent: no cache, no limits, no detector —
    byte-for-byte the seed reproduction's black-box behaviour.  Experiment
    configs turn individual axes on to create new attack scenarios.
    """

    cache_capacity: int = 0  # 0 disables the top-k cache
    ttl_injections: int = 0  # 0 = strict invalidation, t > 0 = staleness horizon
    default_policy: QuotaPolicy = UNLIMITED
    client_policies: tuple[tuple[str, QuotaPolicy], ...] = ()
    detector_mode: str = "off"  # off | flag | block
    # How the service resolves per-shard slices: "serial" (sequential
    # loop, the default), "threaded" (persistent one-worker-per-shard
    # thread pool), "process" (one worker process per shard holding a
    # replicated shard state, kept in lockstep by epoch-stamped
    # replication events — parallel compute past the GIL), or "async"
    # (slices as coroutines on the caller's event loop).  Every engine
    # serves identical lists; they differ in measured wall clock.
    engine: str = "serial"
    # How process-engine replicas hold model state: "sliced" partitions
    # per-user state by shard and shares the item side through
    # multiprocessing.shared_memory (per-shard memory sublinear in user
    # count; resync ships one user slice, not a full pickle), "full"
    # replicates the whole model per shard (the pre-slicing behaviour).
    # Models that do not support slicing fall back to full replication;
    # in-memory engines share one model and ignore this field.
    replication: str = "sliced"

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be non-negative")
        if self.ttl_injections < 0:
            raise ConfigurationError("ttl_injections must be non-negative")
        if self.detector_mode not in _DETECTOR_MODES:
            raise ConfigurationError(f"detector_mode must be one of {_DETECTOR_MODES}")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine must be one of {ENGINES}")
        if self.replication not in ("sliced", "full"):
            raise ConfigurationError("replication must be one of ('sliced', 'full')")


@dataclass
class ServiceStats:
    """Per-request accounting for throughput/latency reporting.

    ``record_request`` is thread-safe: the threaded engine records the
    coordinator's stats from whichever client thread issued the request,
    and each shard's stats from its worker thread.  The injection
    counters are written only under the service's model write lock.

    Denial accounting is *split by cause*: ``n_rate_limited`` counts
    quota denials (the limiter raised on admission — the client spent
    budget it didn't have), ``n_shed`` counts requests an overload
    policy dropped before admission (the platform was saturated — no
    quota was charged), and ``n_timed_out`` counts requests that gave up
    waiting for queue space.  A shed request is *not* a quota denial;
    conflating them made "throttled attacker" and "overloaded platform"
    indistinguishable in reports.
    """

    n_requests: int = 0  # guarded-by: _lock
    n_users_served: int = 0  # guarded-by: _lock
    n_users_scored: int = 0  # guarded-by: _lock (users that hit the model: cache misses)
    n_injections: int = 0
    n_flagged_injections: int = 0
    n_blocked_injections: int = 0
    n_rate_limited: int = 0  # guarded-by: _lock (admissions denied by quota)
    n_shed: int = 0  # guarded-by: _lock (dropped by an overload policy pre-admission)
    n_timed_out: int = 0  # guarded-by: _lock (gave up waiting for queue space)
    n_canary_users: int = 0  # guarded-by: _lock (users served by a staged canary model)
    n_shadow_users: int = 0  # guarded-by: _lock (users shadow-scored against a staged model)
    n_shadow_agree: int = 0  # guarded-by: _lock (shadow users whose staged list matched the served one)
    wall_times: list[float] = field(default_factory=list)  # guarded-by: _lock
    batch_sizes: list[int] = field(default_factory=list)  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        """Pickle counters only: thread locks cannot cross process bounds.

        Process-engine workers receive their ``ServiceStats`` as part of
        the replicated shard state, so the object must serialize; the
        lock is an in-process concern and is recreated fresh on load.
        """
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record_request(self, n_users: int, n_scored: int, elapsed: float) -> None:
        with self._lock:
            self.n_requests += 1
            self.n_users_served += n_users
            self.n_users_scored += n_scored
            self.wall_times.append(elapsed)
            self.batch_sizes.append(n_users)

    def record_rate_limited(self) -> None:
        """One admission denied by quota (query or injection)."""
        with self._lock:
            self.n_rate_limited += 1

    def record_shed(self) -> None:
        """One request dropped by an overload policy before admission."""
        with self._lock:
            self.n_shed += 1

    def record_timed_out(self) -> None:
        """One request that gave up waiting for queue space."""
        with self._lock:
            self.n_timed_out += 1

    def record_canary(self, n_users: int) -> None:
        """Users whose lists came from the staged model during a rollout."""
        with self._lock:
            self.n_canary_users += n_users

    def record_shadow(self, n_users: int, n_agree: int) -> None:
        """Users shadow-scored against the staged model (served the active one)."""
        with self._lock:
            self.n_shadow_users += n_users
            self.n_shadow_agree += n_agree

    def clear_rollout_counters(self) -> None:
        """Drop the canary-window counters after a rollback.

        A rolled-back fleet must be indistinguishable from one that never
        staged the candidate, and these three counters are the only stats
        a pure canary/shadow window touches (regular request accounting
        is unchanged by design: shadows serve the active model, canaries
        degrade to it on failure).
        """
        with self._lock:
            self.n_canary_users = 0
            self.n_shadow_users = 0
            self.n_shadow_agree = 0

    def summary(self) -> dict[str, float]:
        """Uniform query-side cost summary (shared with QueryLog reporting)."""
        with self._lock:
            times = np.asarray(self.wall_times, dtype=np.float64)
            sizes = np.asarray(self.batch_sizes, dtype=np.float64)
            out: dict[str, float] = {
                "n_requests": float(self.n_requests),
                "n_users_served": float(self.n_users_served),
                "n_users_scored": float(self.n_users_scored),
                "n_injections": float(self.n_injections),
            }
            if self.n_rate_limited or self.n_shed or self.n_timed_out:
                out["n_rate_limited"] = float(self.n_rate_limited)
                out["n_shed"] = float(self.n_shed)
                out["n_timed_out"] = float(self.n_timed_out)
            if self.n_canary_users or self.n_shadow_users:
                out["n_canary_users"] = float(self.n_canary_users)
                out["n_shadow_users"] = float(self.n_shadow_users)
                out["n_shadow_agree"] = float(self.n_shadow_agree)
        if times.size:
            out["total_wall_s"] = float(times.sum())
            out["mean_wall_ms"] = float(times.mean() * 1e3)
            out.update(
                percentile_summary(times, percentiles=(50, 95), key_format="p{p}_wall_ms")
            )
            out["mean_batch_size"] = float(sizes.mean())
            out["max_batch_size"] = float(sizes.max())
        return out

    def reset(self) -> None:
        with self._lock:
            self.n_requests = 0
            self.n_users_served = 0
            self.n_users_scored = 0
            self.n_injections = 0
            self.n_flagged_injections = 0
            self.n_blocked_injections = 0
            self.n_rate_limited = 0
            self.n_shed = 0
            self.n_timed_out = 0
            self.n_canary_users = 0
            self.n_shadow_users = 0
            self.n_shadow_agree = 0
            self.wall_times = []
            self.batch_sizes = []


def resolve_slice(
    model: "Recommender",
    cache: TopKCache | None,
    users: Sequence[int] | np.ndarray,
    k: int,
    exclude_seen: bool,
    use_cache: bool,
    profiler: "StageTimers | None" = None,
) -> tuple[int, list[np.ndarray]]:
    """Resolve one slice of users: batched cache pass, one batch of misses.

    This is the **single definition of slice semantics**, shared by every
    resolution path: the in-memory engines (which call it from the
    coordinator process under the shard's lock) and process-engine
    worker replicas — so cache hit/miss counters and served lists are
    identical across engines by construction, not by parallel
    maintenance of duplicate code paths.

    The hot path is vectorised: one :meth:`TopKCache.lookup_batch` pass
    over the slice, miss users deduplicated with ``np.unique`` (which
    reproduces the historical ``sorted(set(...))`` scoring order
    exactly, keeping LRU insertion order identical), one
    ``top_k_batch`` over the unique misses, one
    :meth:`TopKCache.store_batch`.  Returns ``(n_scored, results)``
    where ``n_scored`` counts deduplicated model-scored users.

    ``profiler`` (a :class:`~repro.serving.profiling.StageTimers`)
    splits the slice wall clock into ``cache`` and ``scoring`` stages;
    ``None`` keeps the path uninstrumented.
    """
    users = np.asarray(users, dtype=np.int64)
    if cache is None or not use_cache:
        if profiler is None:
            return int(users.size), model.top_k_batch(users, k, exclude_seen=exclude_seen)
        t0 = time.perf_counter()
        results = model.top_k_batch(users, k, exclude_seen=exclude_seen)
        profiler.add("scoring", time.perf_counter() - t0, int(users.size))
        return int(users.size), results
    t0 = time.perf_counter() if profiler is not None else 0.0
    results, miss_positions = cache.lookup_batch(users.tolist(), k, exclude_seen)
    if profiler is not None:
        profiler.add("cache", time.perf_counter() - t0, int(users.size))
    if miss_positions.size == 0:
        return 0, results
    unique_users, inverse = np.unique(users[miss_positions], return_inverse=True)
    t0 = time.perf_counter() if profiler is not None else 0.0
    fresh = model.top_k_batch(unique_users, k, exclude_seen=exclude_seen)
    if profiler is not None:
        profiler.add("scoring", time.perf_counter() - t0, int(unique_users.size))
        t0 = time.perf_counter()
    cache.store_batch(unique_users.tolist(), k, exclude_seen, fresh)
    for position, fresh_index in zip(miss_positions.tolist(), inverse.tolist()):
        results[position] = fresh[fresh_index]
    if profiler is not None:
        profiler.add("cache", time.perf_counter() - t0, int(unique_users.size))
    return int(unique_users.size), results


def __getattr__(name: str):
    # The benchmark harness's probe table (perfbench/probes.py) still
    # resolves the pre-merge class path "repro.serving.service:
    # RecommendationService" to time query/inject/restore; answer it
    # with the one service class.  Not exported.
    if name == "RecommendationService":
        from repro.serving.sharded import ShardedRecommendationService

        return ShardedRecommendationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
