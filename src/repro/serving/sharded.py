"""The recommendation service: a coordinator over ``n`` worker shards.

Every consumer of recommendations — the attacker's black-box facade, the
promotion evaluator, the organic traffic simulator — goes through
:class:`ShardedRecommendationService` instead of touching the model
directly.  It is the platform's one service implementation: ``n_shards``
defaults to 1 on the serial engine, which is the plain single-process
deployment, and larger fleets partition the user base across worker
shards, each holding its own result cache and quota state, with a thin
coordinator that fans batched queries out and merges the results.  A
request passes, in order:

1. **admission** — the client's home-shard
   :class:`~repro.serving.rate_limit.RateLimiter` applies its quota
   policy (QPS caps, cohort-size caps, injection throttles);
2. **routing** — users map to shards by stable hash
   (:class:`ShardRouter`) or over a consistent-hash ring
   (:class:`ConsistentHashRouter`, which moves only ~1/n of the keys when
   a shard is added);
3. **per-shard caching and batched scoring** — each shard resolves its
   slice through :func:`~repro.serving.service.resolve_slice` against its
   own LRU :class:`~repro.serving.cache.TopKCache`, folding the misses
   into one ``top_k_batch`` call;
4. **online detection** — an optional fake-profile detector screens
   injections at the boundary (flag or block).

Because a client's admissions all land on its home shard and duplicate
users in a request always route to the same shard, the fleet's quota,
dedup and batching behaviour does not depend on the shard count (the
parity and engine-conformance suites pin element-wise identical top-k
lists against a single-cache reference).  Every injection is published
on an :class:`InvalidationBus` that all shards subscribe to, so strict
mode never serves a stale list from *any* shard and TTL mode advances
every shard's staleness clock in lockstep.  Snapshot/restore preserves
black-box episode semantics: restoring rolls the model back *and*
resets every shard, so a reset platform never serves lists computed
against dropped injections.

How a request's per-shard slices execute is an
:class:`~repro.serving.engine.ExecutionEngine` policy (``serial``,
``threaded``, ``process``, or ``async``, selected by
``ServingConfig.engine`` or the ``engine`` constructor argument).  Every
engine serves the same lists; they differ in measured wall clock and,
for ``process``, in where shard state lives.

Under the *process* engine the shards stop sharing memory entirely:
each shard's serving state (a model replica, its cache, its limiter
policies, its stats) is serialized into a persistent worker process at
pool start, and the coordinator keeps the replicas in lockstep through
an epoch-stamped replication protocol (see :mod:`repro.serving.replica`):

* the coordinator's model is the source of truth; its version is a
  monotonically increasing **epoch** (bumped by every injection and
  every episode restore);
* every injection publishes a :class:`~repro.serving.replica.ReplicationEvent`
  on the :class:`InvalidationBus` carrying the profile, the new epoch,
  and the coordinator's freshly **pre-warmed** lazy scoring caches
  (:meth:`~repro.recsys.base.Recommender.prewarm` — built exactly once,
  installed verbatim by every replica instead of N duplicate rebuilds);
* every restore publishes a ``resync`` event shipping the rolled-back
  model wholesale;
* every query slice carries the coordinator's epoch, and a replica
  whose state lags raises
  :class:`~repro.errors.StaleReplicaError` instead of silently serving
  a pre-injection model version — staleness is *detectable*, never
  silent (acknowledged epochs are pinned by a hypothesis property
  test);
* per-shard stats and cache counters accrue inside the workers and are
  shipped back with every slice result and replication ack, then merged
  into coordinator-side mirror shards, so reports and the
  engine-conformance counters are identical across engines.

Client admission (rate limiting) stays at the coordinator front door in
every mode: a client's admissions must serialize *before* fan-out for
per-shard quota state to be observationally identical to one global
limiter, so the home-shard limiter mirrors are authoritative and the
replicated worker-side limiters see no traffic in this deployment.

Thread-safety contract (what makes the threaded engine correct):

* every piece of per-shard mutable state — the shard's cache and its
  :class:`~repro.serving.service.ServiceStats` — is guarded by that
  shard's lock and touched only while it is held (by the worker
  resolving the shard's slice, by bus-driven invalidations, and by
  episode restores); quota windows live in internally locked limiters;
* the model is shared read-only on the query path; injections and
  restores, which mutate it, take the write side of a
  :class:`~repro.serving.engine.ReadWriteLock` that queries hold for
  reading, so scoring never races a profile landing.  (One scoped
  exception to "read-only": some models lazily rebuild an idempotent
  scoring cache on first use after an injection — ItemKNN's similarity
  matrix, NeuralCF's fused first-layer tensor.  The build is atomic to
  publish and identical from every thread, so concurrent workers can at
  worst duplicate the work, never corrupt it);
* the coordinator's :class:`ServiceStats` is internally locked, and
  ``flagged_injections`` is only touched under the model write lock.
"""

from __future__ import annotations

import asyncio
import bisect
import pickle
import time
import zlib
from functools import partial
from threading import Lock
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    InjectionBlockedError,
    RateLimitExceededError,
    RolloutError,
    SnapshotError,
    StaleReplicaError,
)
from repro.serving import replica as replica_proto
from repro.serving import shared_state
from repro.serving.cache import CacheStats, TopKCache
from repro.serving.engine import ExecutionEngine, ReadWriteLock, make_engine
from repro.serving.rate_limit import UNLIMITED, RateLimiter
from repro.serving.replica import CacheSnapshot, InjectionRecord, ReplicationEvent
from repro.serving.rollout import ModelVersionRegistry, RolloutController, RolloutGuard
from repro.serving.service import ServiceStats, ServingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.base import Recommender
    from repro.serving.profiling import StageTimers

__all__ = [
    "ShardRouter",
    "ConsistentHashRouter",
    "InvalidationBus",
    "ShardedRecommendationService",
    "group_by_shard",
    "scatter_to_request_order",
]

_ROUTINGS = ("hash", "consistent")


def _stable_hash(key: str | int) -> int:
    """Process-stable 32-bit hash (Python's ``hash`` is salted per run)."""
    data = key.to_bytes(8, "little", signed=True) if isinstance(key, int) else key.encode()
    return zlib.crc32(data)


def _build_crc32_table() -> np.ndarray:
    """The standard CRC-32 byte table (reflected polynomial 0xEDB88320)."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, np.uint32(0xEDB88320) ^ (table >> 1), table >> 1)
    return table.astype(np.uint32)


_CRC32_TABLE = _build_crc32_table()


def _stable_hash_array(user_ids: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_stable_hash` over an int64 user-id array.

    Bit-identical to ``zlib.crc32`` of each id's 8 little-endian signed
    bytes (the scalar path), computed as eight table-driven byte rounds
    over the whole array — one numpy pass per byte instead of one Python
    call per user.
    """
    raw = np.ascontiguousarray(user_ids, dtype=np.int64).view(np.uint64)
    crc = np.full(raw.shape, 0xFFFFFFFF, dtype=np.uint32)
    for shift in range(0, 64, 8):
        byte = ((raw >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.uint32)
        crc = _CRC32_TABLE[(crc ^ byte) & np.uint32(0xFF)] ^ (crc >> np.uint32(8))
    return crc ^ np.uint32(0xFFFFFFFF)


class ShardRouter:
    """Stable modulo-hash routing of users and clients to shards."""

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        self.n_shards = n_shards

    def shard_for_user(self, user_id: int) -> int:
        return _stable_hash(int(user_id)) % self.n_shards

    def shards_for_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_for_user` over an array of user ids.

        One CRC pass and one modulo over the whole array; element-wise
        identical to the scalar method (pinned by the router equivalence
        tests), so the two paths are interchangeable on the hot path.
        """
        hashes = _stable_hash_array(np.asarray(user_ids, dtype=np.int64))
        return (hashes % np.uint32(self.n_shards)).astype(np.int64)

    def shard_for_client(self, client: str) -> int:
        """Home shard holding the client's rate-limiter state."""
        return _stable_hash(client) % self.n_shards


class ConsistentHashRouter(ShardRouter):
    """Consistent-hash ring with virtual nodes.

    Keys map to the first ring point at-or-clockwise-after their hash
    (a key whose hash lands exactly on a ring point belongs to that
    point).  Adding a shard re-routes only the keys that fall into the
    new shard's arcs (~1/n of the space), where modulo routing would
    remap almost all of them — the property that makes cache warm-up
    survive resharding.

    When two virtual nodes hash-collide, the colliding ring position is
    owned by exactly one of them — deterministically the lowest shard
    index — so key placement never depends on sort tie order versus
    bisection direction.  The ring therefore contains strictly
    increasing hashes.
    """

    def __init__(self, n_shards: int, n_replicas: int = 64) -> None:
        super().__init__(n_shards)
        if n_replicas <= 0:
            raise ConfigurationError("n_replicas must be positive")
        self.n_replicas = n_replicas
        points = [
            (_stable_hash(f"shard-{shard}#vnode-{replica}"), shard)
            for shard in range(n_shards)
            for replica in range(n_replicas)
        ]
        points.sort()
        self._ring_hashes: list[int] = []
        self._ring_shards: list[int] = []
        for hashed, shard in points:
            if self._ring_hashes and self._ring_hashes[-1] == hashed:
                # Virtual-node hash collision: tuple sort already placed
                # the lowest shard index first; keep it, drop the rest.
                continue
            self._ring_hashes.append(hashed)
            self._ring_shards.append(shard)
        # Array views of the ring for the vectorised lookup path
        # (np.searchsorted side="left" ≡ bisect_left on these).
        self._ring_hash_array = np.asarray(self._ring_hashes, dtype=np.uint32)
        self._ring_shard_array = np.asarray(self._ring_shards, dtype=np.int64)

    def _locate(self, hashed: int) -> int:
        index = bisect.bisect_left(self._ring_hashes, hashed)
        if index == len(self._ring_hashes):
            index = 0  # wrap around the ring
        return self._ring_shards[index]

    def shard_for_user(self, user_id: int) -> int:
        return self._locate(_stable_hash(int(user_id)))

    def shards_for_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorised ring lookup: one CRC pass, one ``searchsorted``."""
        hashes = _stable_hash_array(np.asarray(user_ids, dtype=np.int64))
        index = np.searchsorted(self._ring_hash_array, hashes, side="left")
        index[index == self._ring_hash_array.size] = 0  # wrap around the ring
        return self._ring_shard_array[index]

    def shard_for_client(self, client: str) -> int:
        return self._locate(_stable_hash(client))


def group_by_shard(
    router: ShardRouter, users: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Group request positions by owning shard in one argsort pass.

    Returns ``(order, slices)``: ``order`` is the request positions
    sorted by shard (the scatter index for
    :func:`scatter_to_request_order`), and ``slices`` is one
    ``(shard_index, positions, slice_users)`` triple per non-empty
    shard, where ``positions``/``slice_users`` are contiguous views into
    the sorted arrays.  The sort is *stable*, so users keep their
    request order within each shard — the property that makes per-shard
    cache hit/miss sequences identical to the historical per-user
    ``setdefault`` grouping loop.
    """
    if users.size == 0:
        return np.empty(0, dtype=np.int64), []
    shards = router.shards_for_users(users)
    order = np.argsort(shards, kind="stable")
    sorted_shards = shards[order]
    sorted_users = users[order]
    boundaries = np.flatnonzero(sorted_shards[1:] != sorted_shards[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_shards.size]))
    slices = [
        (int(sorted_shards[start]), order[start:end], sorted_users[start:end])
        for start, end in zip(starts.tolist(), ends.tolist())
    ]
    return order, slices


def scatter_to_request_order(
    order: np.ndarray, per_slice_results: Sequence[Sequence[np.ndarray]]
) -> list[np.ndarray]:
    """Merge per-slice top-k rows back into request order in one scatter.

    Every row of a request shares the same length (``min(k, n_items)``),
    so the slice results stack into one 2-D block and a single
    fancy-indexed assignment restores request order — replacing the
    historical per-position Python merge loop.  ``order`` is the
    position array from :func:`group_by_shard`; slice results must be
    concatenated in the same slice order.
    """
    blocks = [np.asarray(rows, dtype=np.int64) for rows in per_slice_results]
    stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    merged = np.empty_like(stacked)
    merged[order] = stacked
    return list(merged)


class InvalidationBus:
    """Broadcasts replication events to every subscribed shard.

    The bus is the mechanism that keeps per-shard state in lockstep with
    the coordinator's model version: one published
    :class:`~repro.serving.replica.ReplicationEvent` reaches *every*
    subscriber exactly once, in subscription order.  For in-memory
    shards an ``inject`` event advances the shard's staleness clock; for
    process-engine replicas the subscriber forwards the event into the
    worker (apply the injection + pre-warmed caches, or resync the whole
    model after a restore) and waits for the epoch acknowledgement.

    ``events``/``n_deliveries`` track *injection* fan-out so tests and
    reports can assert it; ``n_resyncs`` counts restore-driven resync
    broadcasts separately (episode control, not episode-observable
    traffic).
    """

    def __init__(self) -> None:
        # repro-lint: disable=RL004 -- subscriptions persist across episode resets by design
        self._subscribers: list[Callable[[ReplicationEvent], None]] = []
        self.events: list[int] = []  # user ids of published injections
        self.n_deliveries = 0
        self.n_resyncs = 0

    def subscribe(self, callback: Callable[[ReplicationEvent], None]) -> None:
        self._subscribers.append(callback)

    def publish(self, event: ReplicationEvent) -> None:
        if event.kind == "inject":
            self.events.append(int(event.user_id))
        elif event.kind == "inject_batch":
            self.events.extend(
                int(record.user_id) for record in (event.records or ())
            )
        else:
            self.n_resyncs += 1
        for callback in self._subscribers:
            callback(event)
            if event.kind == "inject":
                self.n_deliveries += 1
            elif event.kind == "inject_batch":
                self.n_deliveries += len(event.records or ())

    def reset(self) -> None:
        """Forget delivered history (episode boundary; subscriptions persist).

        Events published during a rolled-back episode describe injections
        that no longer exist, so fan-out reports must not count them.
        """
        self.events.clear()
        self.n_deliveries = 0
        self.n_resyncs = 0


class _WorkerShard:
    """One worker: its cache, its quota state, its serving counters.

    ``lock`` guards every mutable field; the engine worker resolving this
    shard's slice, bus-driven invalidations, and episode restores all
    hold it, so shard state is consistent under the threaded engine.

    Under the process engine this object is the coordinator-side
    **mirror** of a replica living in a worker process (``remote`` is
    set): the cache here holds no entries — the replica's counters are
    shipped back with every slice result and replication ack and folded
    in via :meth:`apply_snapshot`, so reporting reads one shape of shard
    regardless of engine.  The limiter is always coordinator-side and
    authoritative (admission happens before fan-out).
    """

    def __init__(
        self,
        index: int,
        config: ServingConfig,
        per_client_policies: dict,
        limiter_kwargs: dict,
        n_items: int | None = None,
    ) -> None:
        self.index = index
        self.lock = Lock()
        # repro-lint: disable=RL004 -- deployment topology, not episode state
        self.remote = False
        self.n_replica_entries = 0  # guarded-by: lock (replica cache size, remote mirrors only)
        self._snapshot_seq = -1  # guarded-by: lock (newest replica snapshot folded in)
        self.cache = (  # guarded-by: lock
            TopKCache(
                capacity=config.cache_capacity,
                ttl_injections=config.ttl_injections,
                n_items=n_items,
            )
            if config.cache_capacity > 0
            else None
        )
        # Internally locked: admission runs on the client thread before
        # fan-out, outside the shard lock.
        self.limiter = RateLimiter(
            default_policy=config.default_policy,
            per_client=per_client_policies,
            **limiter_kwargs,
        )
        self.stats = ServiceStats()  # guarded-by: lock

    def note_injection(self) -> None:
        """Bus callback: advance this shard's staleness clock under lock."""
        with self.lock:
            if self.cache is not None:
                self.cache.note_injection()

    def apply_snapshot(self, snapshot: CacheSnapshot | None) -> None:
        """Fold a replica's reported cache counters into this mirror.

        Snapshots are absolute counter states, so the mirror only moves
        forward: concurrent client threads can complete their fan-outs in
        a different order than the worker served them, and an older
        snapshot arriving late must not roll the mirror back.
        """
        with self.lock:
            if self.cache is not None and snapshot is not None:
                if snapshot.seq <= self._snapshot_seq:
                    return
                self._snapshot_seq = snapshot.seq
                stats = self.cache.stats
                stats.hits = snapshot.hits
                stats.misses = snapshot.misses
                stats.evictions = snapshot.evictions
                stats.invalidations = snapshot.invalidations
                self.n_replica_entries = snapshot.n_entries

    def record_remote_slice(self, result: replica_proto.SliceResult, n_users: int) -> None:
        """Mirror one worker-resolved slice: request stats + cache counters."""
        with self.lock:
            self.stats.record_request(n_users, result.n_scored, result.elapsed)
        self.apply_snapshot(result.cache)

    def reset(self) -> None:
        """Return every counter and entry to the freshly-constructed state."""
        with self.lock:
            if self.cache is not None:
                self.cache.flush()
                self.cache.stats.reset()
            self.limiter.reset()
            self.stats.reset()
            self.n_replica_entries = 0
            # Without this, a mirror that saw snapshot seq N before the
            # reset would drop every post-reset snapshot up to seq N —
            # exactly the PR 8 restore-vs-fresh divergence class.
            self._snapshot_seq = -1

    def counters(self) -> dict[str, float]:
        """Monotonic counters; traffic replays diff these for per-run rows."""
        with self.lock:
            out = {
                "n_requests": float(self.stats.n_requests),
                "n_users_served": float(self.stats.n_users_served),
                "n_users_scored": float(self.stats.n_users_scored),
            }
            if self.cache is not None:
                out["cache_hits"] = float(self.cache.stats.hits)
                out["cache_misses"] = float(self.cache.stats.misses)
        return out

    def summary(self) -> dict[str, float]:
        out = {"shard": float(self.index), **self.counters()}
        with self.lock:
            if self.cache is not None:
                entries = self.n_replica_entries if self.remote else len(self.cache)
                out["cache_entries"] = float(entries)
        return out


class ShardedRecommendationService:
    """Cache- and quota-fronted service over a fitted recommender.

    Parameters
    ----------
    model:
        The fitted recommender every shard scores against (one model
        replica in-process; shards own *serving* state).
    n_shards:
        Number of worker shards.  The default of 1 is the plain
        single-process deployment.
    config:
        The :class:`ServingConfig` posture, applied per shard: each shard
        gets its own cache of ``cache_capacity`` entries and its own
        limiter with the same policies.  Because a client's admissions all
        land on its home shard and a user's cache keys all land on its
        owning shard, behaviour matches one global cache/limiter
        (eviction order under capacity pressure is the one documented
        divergence — per-shard LRU is local).
    detector:
        Fitted fake-profile detector, required when
        ``config.detector_mode`` is not ``"off"``.
    clock / limiter_clock:
        Clocks for request wall times and for the limiters' windows.
    routing:
        ``"hash"`` (stable modulo hash) or ``"consistent"`` (ring with
        virtual nodes).
    engine:
        ``"serial"``, ``"threaded"``, ``"process"``, ``"async"``, or an
        :class:`~repro.serving.engine.ExecutionEngine` instance;
        ``None`` (default) takes the mode from ``config.engine``.  Every
        engine produces element-wise identical results — engines change
        wall clock (and, for ``process``, where shard state physically
        lives), never output; the engine-conformance suite pins this.
    shard_latency_s:
        Modelled per-slice service latency of a remote shard worker (the
        RPC hop a coordinator pays per shard it contacts).  The threaded
        and process engines overlap these waits across shards, the async
        engine awaits them on its event loop (so waits also overlap
        *across requests* via :meth:`query_async`), and the serial
        engine pays them in sequence.  ``0`` (default) disables
        the model.  The wait is paid before a slice takes its shard
        lock, so per-shard ``stats.wall_times`` hold compute only.
    """

    def __init__(
        self,
        model: Recommender,
        n_shards: int = 1,
        config: ServingConfig | None = None,
        detector: object | None = None,
        clock: Callable[[], float] = time.perf_counter,
        limiter_clock: Callable[[], float] | None = None,
        routing: str | ShardRouter = "hash",
        engine: str | ExecutionEngine | None = None,
        shard_latency_s: float = 0.0,
    ) -> None:
        if not model.is_fitted:
            raise ConfigurationError("ShardedRecommendationService requires a fitted model")
        config = config if config is not None else ServingConfig()
        if config.detector_mode != "off" and detector is None:
            raise ConfigurationError(
                f"detector_mode={config.detector_mode!r} requires a fitted detector"
            )
        self._model = model
        self.config = config
        self.detector = detector
        self._clock = clock
        self.stats = ServiceStats()  # internally locked
        self.flagged_injections: list[tuple[int, float]] = []  # guarded-by: _model_lock
        # Optional hot-path instrumentation: attach a
        # repro.serving.profiling.StageTimers to split query wall clock
        # into admission/routing/cache/scoring/merge stages.  None keeps
        # the query path uninstrumented (one attribute check per stage).
        self.profiler: "StageTimers | None" = None
        if isinstance(routing, ShardRouter):
            if routing.n_shards != n_shards:
                raise ConfigurationError(
                    f"router is sized for {routing.n_shards} shards, service has {n_shards}"
                )
            self.router = routing
        elif routing == "hash":
            self.router = ShardRouter(n_shards)
        elif routing == "consistent":
            self.router = ConsistentHashRouter(n_shards)
        else:
            raise ConfigurationError(f"routing must be one of {_ROUTINGS} or a ShardRouter")
        if shard_latency_s < 0:
            raise ConfigurationError("shard_latency_s must be non-negative")
        self.n_shards = n_shards
        self.shard_latency_s = float(shard_latency_s)
        self._engine = make_engine(
            engine if engine is not None else self.config.engine, n_workers=n_shards
        )
        # Anything failing past this point (shard/engine mismatch, an
        # unpicklable model surfacing during replica installation) would
        # leak live worker pools — and, in sliced mode, shared-memory
        # segments: the caller never receives a service handle to close,
        # so release both before re-raising.
        self._shared_store: shared_state.SharedItemStore | None = None
        try:
            self._remote = not self._engine.shares_memory
            # Sliced replication: partition per-user state by shard and
            # share the item side through shared memory.  Only meaningful
            # when shards live in other processes; models without a
            # slicing implementation fall back to full replication.
            self._sliced = (
                self._remote
                and self.config.replication == "sliced"
                and model.supports_slicing
            )
            if self._remote and getattr(self._engine, "n_workers", n_shards) != n_shards:
                raise ConfigurationError(
                    f"process engine holds {self._engine.n_workers} shard replicas, "
                    f"service has {n_shards} shards"
                )
            # Model version: bumped by every injection and every restore.
            # Process-engine replicas acknowledge each epoch they apply,
            # and every query slice is checked against it
            # (StaleReplicaError on mismatch), so a lagging replica is
            # detectable, never silent.
            self._epoch = 0
            self._model_lock = ReadWriteLock()
            # Versioned rollout: the registry numbers candidate models
            # (monotonic within an episode) and _rollout holds the state
            # of the in-flight canary window, None outside one.  The
            # reference itself is only rebound under the model write
            # lock; query threads read it under the read side, and the
            # controller's own lock guards its counters (see
            # repro.serving.rollout) — so neither field carries a
            # guarded-by annotation of its own.
            self.versions = ModelVersionRegistry()
            self._rollout: RolloutController | None = None
            #: Most recent rollback of a staged version, as
            #: ``{"version", "reason", "auto"}`` — None when no rollback
            #: happened since construction / the last stage / restore.
            self.last_rollout_rollback: dict | None = None
            limiter_kwargs = {} if limiter_clock is None else {"clock": limiter_clock}
            per_client = dict(self.config.client_policies)
            # Evaluation-side ground-truth reads are exempt unless a config
            # explicitly limits them (environment.measure relies on this).
            per_client.setdefault("evaluator", UNLIMITED)
            self.bus = InvalidationBus()
            n_items = model.dataset.n_items
            self.shards = [
                _WorkerShard(i, self.config, per_client, limiter_kwargs, n_items=n_items)
                for i in range(n_shards)
            ]
            for shard in self.shards:
                shard.remote = self._remote
                self.bus.subscribe(partial(self._on_replication_event, shard))
            if self._remote:
                self._install_replicas()
        except Exception:
            self._engine.close()
            if self._shared_store is not None:
                self._shared_store.close()
            raise

    # -- public surface -------------------------------------------------------
    @property
    def model(self) -> Recommender:
        """The backing model (platform-side access; attackers use the facade)."""
        return self._model

    @property
    def n_items(self) -> int:
        return self._model.dataset.n_items

    @property
    def n_users(self) -> int:
        return self._model.dataset.n_users

    # -- lifecycle -------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        """Execution mode resolving per-shard slices (reporting helper)."""
        return self._engine.name

    @property
    def epoch(self) -> int:
        """Current model version (injections + restores since construction)."""
        return self._epoch

    def close(self) -> None:
        """Release engine workers and shared segments (idempotent)."""
        self._engine.close()
        if self._shared_store is not None:
            self._shared_store.close()

    # -- replication (process engine) -----------------------------------------
    def _install_replicas(self) -> None:
        """Serialize each shard's state into its worker at pool start.

        Full mode: the model is pickled once and shipped to every worker
        together with the serving config (from which the worker rebuilds
        its cache, limiter, and stats) — the shard state leaves the
        coordinator's address space here and is only ever touched through
        replication messages afterwards.  Lazy scoring caches are
        pre-warmed *before* serialization so the blob ships warm: no
        worker ever pays a cold rebuild on its first slice.

        Sliced mode (``config.replication == "sliced"`` and the model
        supports it): the item side is published once into shared-memory
        segments and each worker receives only its shard's user slice
        plus the segment handle — per-worker install payload and RSS are
        proportional to the shard's user count, not N full models.
        """
        if self._sliced:
            self._install_replicas_sliced()
            return
        self._model.prewarm()
        blob = pickle.dumps(self._model)
        futures = [
            self._engine.submit_to(
                shard.index,
                replica_proto.install_replica,
                shard.index,
                blob,
                self.config,
                self._epoch,
                self.shard_latency_s,
            )
            for shard in self.shards
        ]
        for shard, ack in zip(self.shards, self._engine.gather(futures)):
            self._verify_replica(ack.epoch, ack.model_n_users, shard.index)

    def _shard_user_ids(self) -> list[np.ndarray]:
        """Partition every current user id by owning shard (router-driven)."""
        users = np.arange(self._model.dataset.n_users, dtype=np.int64)
        if self.n_shards == 1 or users.size == 0:
            return [users] + [users[:0]] * (self.n_shards - 1)
        shards = self.router.shards_for_users(users)
        return [users[shards == index] for index in range(self.n_shards)]

    def _install_replicas_sliced(self) -> None:
        self._shared_store = shared_state.SharedItemStore(self._model.shared_item_state())
        handle = self._shared_store.handle()
        n_users_global = self._model.dataset.n_users
        futures = [
            self._engine.submit_to(
                shard.index,
                replica_proto.install_replica_sliced,
                shard.index,
                pickle.dumps(self._model.slice_users(user_ids)),
                user_ids,
                handle,
                self.config,
                self._epoch,
                self.shard_latency_s,
                n_users_global,
            )
            for shard, user_ids in zip(self.shards, self._shard_user_ids())
        ]
        for shard, ack in zip(self.shards, self._engine.gather(futures)):
            self._verify_replica(ack.epoch, ack.model_n_users, shard.index)

    def _verify_replica(self, epoch: int, model_n_users: int, shard_index: int) -> None:
        """Cross-check a replica's reported version against the coordinator."""
        if epoch != self._epoch or model_n_users != self._model.dataset.n_users:
            raise StaleReplicaError(
                f"shard {shard_index} replica reports epoch {epoch} / "
                f"{model_n_users} users; coordinator is at epoch {self._epoch} / "
                f"{self._model.dataset.n_users} users"
            )

    def _on_replication_event(self, shard: _WorkerShard, event: ReplicationEvent) -> None:
        """Bus subscriber: advance one mirror's staleness clock."""
        if event.kind == "inject":
            shard.note_injection()
        elif event.kind == "inject_batch":
            for _ in event.records or ():
                shard.note_injection()

    def _replicate(self, event: ReplicationEvent) -> None:
        """Broadcast one state change: bus first, then all workers at once.

        The bus fan-out ticks every coordinator-side mirror (and records
        the event for observability); under the process engine the event
        is then submitted to *every* worker before any acknowledgement
        is awaited, so an injection pays one parallel round trip instead
        of ``n_shards`` sequential ones while holding the write lock.
        Acks are verified in shard order after the gather.
        """
        self.bus.publish(event)
        if self._remote:
            futures = [
                self._engine.submit_to(shard.index, replica_proto.apply_event, event)
                for shard in self.shards
            ]
            for shard, ack in zip(self.shards, self._engine.gather(futures)):
                self._verify_replica(ack.epoch, ack.model_n_users, shard.index)
                shard.apply_snapshot(ack.cache)

    def replica_probe(self) -> list[dict]:
        """Diagnostic view of every worker replica (process engine only)."""
        if not self._remote:
            raise ConfigurationError("replica_probe requires the process engine")
        return self._engine.broadcast(replica_proto.probe_replica)

    def __enter__(self) -> "ShardedRecommendationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing helpers ------------------------------------------------------
    def _limiter_for_client(self, client: str) -> RateLimiter:
        return self.shards[self.router.shard_for_client(client)].limiter

    def shard_of(self, user_id: int) -> int:
        """Which worker owns this user's cache keys (test/report helper)."""
        return self.router.shard_for_user(user_id)

    # -- query path -----------------------------------------------------------
    def query(
        self,
        user_ids: Sequence[int],
        k: int,
        exclude_seen: bool = True,
        client: str = "default",
        use_cache: bool = True,
    ) -> list[np.ndarray]:
        """Fan one batched request out to the owning shards and merge.

        Admission happens once, on the client's home shard, exactly as a
        global limiter would count it.  Each shard then resolves its slice
        of the request against its own cache and folds the misses into
        one ``top_k_batch`` call — sequentially or concurrently depending
        on the configured engine — and merged results come back in
        request order.  Identical inputs produce element-wise identical
        lists at every shard count and under every engine (``top_k_batch``
        is per-user independent, and per-shard state is confined to the
        worker resolving the shard — lock-guarded in-process, or a
        replica in its own process).  ``use_cache=False`` bypasses the
        result caches entirely (no lookup, no store) — the evaluation
        side uses it for ground-truth reads that must not observe or
        pollute staleness state.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        start = self._clock()
        users = np.asarray(user_ids, dtype=np.int64)
        n_users = int(users.size)
        profiler = self.profiler
        order, slices = self._route_request(users, n_users, profiler)
        # Queries share the model for reading; injections/restores write.
        # Admission and the coordinator's stats record both stay inside
        # the read hold: a concurrent restore (write side) must not land
        # between a request's quota admission and its execution, nor
        # between its resolution and its accounting — either way a
        # "freshly reset" platform would carry traces of (or grant free
        # quota to) a pre-reset request.  The limiter's internal lock is
        # a leaf below the model lock on every path, so ordering is safe.
        with self._model_lock.read():
            self._admit_query(client, n_users, profiler)
            if self._remote:
                outcomes = self._resolve_remote(slices, k, exclude_seen, use_cache)
            else:
                outcomes = self._engine.run(
                    self._slice_tasks(slices, k, exclude_seen, use_cache),
                    latency_s=self.shard_latency_s,
                )
            results = self._merge_outcomes(order, outcomes, n_users, profiler, start)
        # Outside the read hold: acting on a rollout verdict needs the
        # write lock, and a reader can never upgrade to it.
        self._maybe_auto_rollback()
        return results

    async def query_async(
        self,
        user_ids: Sequence[int],
        k: int,
        exclude_seen: bool = True,
        client: str = "default",
        use_cache: bool = True,
    ) -> list[np.ndarray]:
        """Coroutine twin of :meth:`query` for the asyncio serving front.

        Requires an engine exposing ``run_async`` (the async engine):
        per-shard slices resolve as coroutines on the *caller's* event
        loop, with the modelled RPC latency awaited rather than slept —
        so a front holding many requests in flight overlaps their waits.

        Identical semantics to :meth:`query` otherwise, including the
        read-lock hold around admission/execution/accounting.  The lock
        acquisition is loop-safe: the non-blocking fast path covers the
        overwhelmingly common no-writer case, and when a writer is
        active or pending the *blocking* wait moves to an executor
        thread — a coroutine must never park the loop thread in
        ``Condition.wait`` while another coroutine (holding the read
        side, awaiting its RPC) needs the loop to resume and release.
        """
        run_async = getattr(self._engine, "run_async", None)
        if run_async is None:
            raise ConfigurationError(
                f"query_async requires an engine with run_async "
                f"(the async engine); this service runs {self._engine.name!r}"
            )
        if k <= 0:
            raise ConfigurationError("k must be positive")
        start = self._clock()
        users = np.asarray(user_ids, dtype=np.int64)
        n_users = int(users.size)
        profiler = self.profiler
        order, slices = self._route_request(users, n_users, profiler)
        if not self._model_lock.try_acquire_read():
            await asyncio.get_running_loop().run_in_executor(
                None, self._model_lock.acquire_read
            )
        try:
            self._admit_query(client, n_users, profiler)
            outcomes = await run_async(
                self._slice_tasks(slices, k, exclude_seen, use_cache),
                latency_s=self.shard_latency_s,
            )
            results = self._merge_outcomes(order, outcomes, n_users, profiler, start)
        finally:
            self._model_lock.release_read()
        rollout = self._rollout
        if rollout is not None and rollout.verdict() is not None:
            # The rollback blocks on the model write lock; never park the
            # event loop in it while other coroutines hold the read side.
            await asyncio.get_running_loop().run_in_executor(
                None, self._maybe_auto_rollback
            )
        return results

    def _route_request(self, users: np.ndarray, n_users: int, profiler):
        """Routing: one vectorised hash pass + stable argsort grouping.

        Single-shard deployments skip the router — everything is one
        slice in request order, and the merge scatter is skipped too.
        """
        t0 = time.perf_counter() if profiler is not None else 0.0
        if n_users == 0:
            order, slices = np.empty(0, dtype=np.int64), []
        elif self.n_shards == 1:
            order, slices = None, [(0, None, users)]
        else:
            order, slices = group_by_shard(self.router, users)
        if profiler is not None:
            profiler.add("routing", time.perf_counter() - t0, n_users)
        return order, slices

    def _admit_query(self, client: str, n_users: int, profiler) -> None:
        """Home-shard admission; quota denials are counted by cause."""
        t0 = time.perf_counter() if profiler is not None else 0.0
        try:
            self._limiter_for_client(client).admit_query(client, n_users)
        except RateLimitExceededError:
            self.stats.record_rate_limited()
            raise
        if profiler is not None:
            profiler.add("admission", time.perf_counter() - t0, n_users)

    def _slice_tasks(
        self, slices, k: int, exclude_seen: bool, use_cache: bool
    ) -> list[Callable[[], tuple[int, list[np.ndarray]]]]:
        rollout = self._rollout  # stable for the read hold (rebinding needs the write lock)
        if rollout is not None:
            return [
                partial(
                    self._resolve_shard_rollout,
                    rollout,
                    shard_index,
                    slice_users,
                    k,
                    exclude_seen,
                    use_cache,
                )
                for shard_index, _, slice_users in slices
            ]
        return [
            partial(
                self._resolve_shard,
                self.shards[shard_index],
                slice_users,
                k,
                exclude_seen,
                use_cache,
            )
            for shard_index, _, slice_users in slices
        ]

    def _merge_outcomes(
        self, order, outcomes, n_users: int, profiler, start: float
    ) -> list[np.ndarray]:
        """Scatter slice results back to request order; record the request."""
        n_scored_total = sum(n_scored for n_scored, _ in outcomes)
        t0 = time.perf_counter() if profiler is not None else 0.0
        if not outcomes:
            results: list[np.ndarray] = []
        elif len(outcomes) == 1:
            # One slice ⇒ its users kept request order (stable sort).
            results = list(outcomes[0][1])
        else:
            results = scatter_to_request_order(
                order, [shard_results for _, shard_results in outcomes]
            )
        if profiler is not None:
            profiler.add("merge", time.perf_counter() - t0, n_users)
        self.stats.record_request(n_users, n_scored_total, self._clock() - start)
        return results

    def _resolve_remote(
        self,
        slices: list[tuple[int, np.ndarray | None, np.ndarray]],
        k: int,
        exclude_seen: bool,
        use_cache: bool,
    ) -> list[tuple[int, list[np.ndarray]]]:
        """Fan slices out to the worker replicas and mirror their counters.

        Every slice message carries the coordinator's current epoch; a
        replica that is not exactly at that version raises
        :class:`~repro.errors.StaleReplicaError` rather than serving a
        stale model, and the coordinator re-checks the epoch and user
        count echoed in each result.  Per-shard stats and cache counters
        accrue in the worker and are folded into the coordinator-side
        mirrors here, so reports are engine-independent.
        """
        futures = [
            self._engine.submit_to(
                shard_index,
                replica_proto.query_slice,
                self._epoch,
                slice_users,
                k,
                exclude_seen,
                use_cache,
            )
            for shard_index, _, slice_users in slices
        ]
        outcomes: list[tuple[int, list[np.ndarray]]] = []
        rollout = self._rollout  # stable for the read hold (rebinding needs the write lock)
        for (shard_index, _, slice_users), result in zip(slices, self._engine.gather(futures)):
            self._verify_replica(result.epoch, result.model_n_users, shard_index)
            if rollout is not None and result.canary_users:
                # Clean canary slice: the replica served the staged model
                # side-effect-free (no stats recorded, no cache touched),
                # so mirror only its unchanged cache view — recording the
                # request here would make rollback observable.
                self.shards[shard_index].apply_snapshot(result.cache)
                rollout.note_canary(result.canary_users, result.elapsed)
                self.stats.record_canary(result.canary_users)
            else:
                self.shards[shard_index].record_remote_slice(result, len(slice_users))
                if rollout is not None:
                    if result.rollout_error is not None:
                        rollout.fail(f"shard {shard_index}: {result.rollout_error}")
                    elif result.shadow_users:
                        rollout.note_shadow(result.shadow_users, result.shadow_agree)
                        self.stats.record_shadow(result.shadow_users, result.shadow_agree)
            outcomes.append((result.n_scored, result.results))
        return outcomes

    def _resolve_shard(
        self,
        shard: _WorkerShard,
        shard_users: np.ndarray,
        k: int,
        exclude_seen: bool,
        use_cache: bool,
    ) -> tuple[int, list[np.ndarray]]:
        """Resolve one shard's slice (runs on the engine's worker thread).

        The modelled worker RPC latency is paid by the *engine* (see
        ``ExecutionEngine.run(tasks, latency_s=...)``) before this task
        body runs — slept per worker thread, awaited on the event loop,
        or slept in sequence by the serial engine — and the shard's clock
        starts only after the shard lock is held: its ``stats.wall_times``
        stay pure compute — neither the modelled wait nor lock contention
        from concurrent clients counts as shard work — while the
        request's measured wall clock feels both.
        """
        with shard.lock:
            t0 = self._clock()
            n_scored, shard_results = replica_proto.resolve_slice(
                self._model,
                shard.cache,
                shard_users,
                k,
                exclude_seen,
                use_cache,
                profiler=self.profiler,
            )
            shard.stats.record_request(len(shard_users), n_scored, self._clock() - t0)
        return n_scored, shard_results

    def _resolve_shard_rollout(
        self,
        rollout: RolloutController,
        shard_index: int,
        shard_users: np.ndarray,
        k: int,
        exclude_seen: bool,
        use_cache: bool,
    ) -> tuple[int, list[np.ndarray]]:
        """In-memory slice resolution while a version is staged.

        The canary shard serves the *staged* model side-effect-free — no
        shard cache, no shard stats — so a rollback leaves the shard's
        durable state exactly as if the window never opened; a staged
        model that raises marks the window failed and the slice degrades
        to the active model through the normal path (that traffic is real
        served traffic and is accounted as such).  Shadow shards serve
        the active model normally, then score the staged model on the
        side and fold exact top-k agreement into the window's counters.
        """
        shard = self.shards[shard_index]
        if shard_index == rollout.canary_shard:
            t0 = time.perf_counter()
            try:
                n_scored, shard_results = replica_proto.resolve_slice(
                    rollout.staged_model, None, shard_users, k, exclude_seen, False
                )
            except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
                rollout.fail(
                    f"canary shard {shard_index} raised {type(exc).__name__}: {exc}"
                )
            else:
                rollout.note_canary(len(shard_users), time.perf_counter() - t0)
                self.stats.record_canary(len(shard_users))
                return n_scored, shard_results
            return self._resolve_shard(shard, shard_users, k, exclude_seen, use_cache)
        n_scored, shard_results = self._resolve_shard(
            shard, shard_users, k, exclude_seen, use_cache
        )
        try:
            _, staged_lists = replica_proto.resolve_slice(
                rollout.staged_model, None, shard_users, k, exclude_seen, False
            )
        except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
            rollout.fail(
                f"shadow scoring on shard {shard_index} raised {type(exc).__name__}: {exc}"
            )
        else:
            n_agree = sum(
                int(np.array_equal(served, staged))
                for served, staged in zip(shard_results, staged_lists)
            )
            rollout.note_shadow(len(shard_users), n_agree)
            self.stats.record_shadow(len(shard_users), n_agree)
        return n_scored, shard_results

    # -- injection path -------------------------------------------------------
    def inject(self, profile: Sequence[int], client: str = "default") -> int:
        """Register a new user profile, subject to throttles and screening.

        Exclusive with in-flight queries: the write lock drains
        concurrent readers before the model mutates, so a shard worker
        never scores against a half-applied injection; the bus then
        advances every shard's staleness clock before the next query can
        start.
        """
        with self._model_lock.write():
            self._check_no_rollout("inject")
            user_id, flagged_score = self._add_profile(profile, client)
            if flagged_score is not None:
                self.flagged_injections.append((user_id, flagged_score))
            self._replicate_injection(user_id)
            return user_id

    def inject_batch(self, profiles: Sequence[Sequence[int]], client: str = "default") -> list[int]:
        """Register several profiles; each is admitted and screened in turn.

        On a mid-batch denial (quota or detector block) the profiles
        admitted before the failure stay injected and the error
        propagates — matching what the equivalent :meth:`inject` loop
        would leave behind.

        Under sliced replication the whole burst is folded into the
        coordinator's model under a single write-lock hold, then crosses
        the process boundary as **one** ``inject_batch`` event per shard
        instead of one event per profile (a denied burst still replicates
        its admitted prefix before the error propagates).  Every other
        deployment runs the per-profile loop: a full-replication
        injection ships its own pre-warm payload, which the batched event
        cannot coalesce without changing lockstep semantics.
        """
        if not self._sliced:
            return [self.inject(profile, client) for profile in profiles]
        with self._model_lock.write():
            self._check_no_rollout("inject_batch")
            assigned: list[int] = []
            try:
                for profile in profiles:
                    user_id, flagged_score = self._add_profile(profile, client)
                    if flagged_score is not None:
                        self.flagged_injections.append((user_id, flagged_score))
                    assigned.append(user_id)
            finally:
                if assigned:
                    self._replicate_injections(assigned)
            return assigned

    def _add_profile(self, profile: Sequence[int], client: str) -> tuple[int, float | None]:
        """Admit, screen, and add one profile, advancing the epoch.

        Caller holds the model write lock and replicates afterwards.
        Returns the assigned user id and the detector score when the
        profile was flagged (None otherwise); screening happens before
        the id exists, so the caller records the flag against the id
        ``add_user`` actually assigned.
        """
        try:
            self._limiter_for_client(client).admit_injection(client)
        except RateLimitExceededError:
            self.stats.record_rate_limited()
            raise
        flagged_score = self._screen_profile(profile)
        user_id = int(self._model.add_user(profile))
        self.stats.n_injections += 1
        self._epoch += 1
        return user_id, flagged_score

    def _screen_profile(self, profile: Sequence[int]) -> float | None:
        """Optional online-detector screening at the injection boundary.

        Returns the detector score when the profile is flagged, None
        when screening is off or the profile passes; raises when the
        detector blocks.
        """
        if self.config.detector_mode == "off":
            return None
        score = float(self.detector.score(tuple(int(v) for v in profile)))
        if score > self.detector.threshold:
            self.stats.n_flagged_injections += 1
            if self.config.detector_mode == "block":
                self.stats.n_blocked_injections += 1
                raise InjectionBlockedError(
                    f"profile rejected by online detector (score {score:.3f} "
                    f"> threshold {self.detector.threshold:.3f})"
                )
            return score
        return None

    def _replicate_injection(self, user_id: int) -> None:
        """Pre-warm once if needed, and replicate one injection.

        When the engine resolves slices concurrently, the coordinator
        rebuilds every lazy scoring cache the injection invalidated
        (:meth:`~repro.recsys.base.Recommender.prewarm`) *before*
        fan-out — still inside the write lock — so engine workers never
        race two duplicate rebuilds on their first post-injection
        slices, and process replicas install the shipped state instead
        of performing N rebuilds.  Under the serial engine the rebuild
        stays lazy (the historical cost profile: an injection burst with
        no interleaved query pays one rebuild at the next query, not
        one per injection).

        Sliced replication replaces the pre-warm shipment entirely: the
        coordinator republishes dirty shared item state in place (one
        shared copy, no per-shard payload) and replicates a one-record
        batch event carrying only the profile and per-user state.
        """
        if self._sliced:
            self._replicate_injections([user_id])
            return
        prewarm = None
        if self._engine.concurrent:
            state = self._model.prewarm()
            if self._remote:
                prewarm = state
        profile = tuple(int(v) for v in self._model.dataset.user_profile(user_id))
        self._replicate(
            ReplicationEvent(
                kind="inject",
                epoch=self._epoch,
                user_id=user_id,
                profile=profile,
                prewarm=prewarm,
            )
        )

    def _replicate_injections(self, user_ids: list[int]) -> None:
        """Sliced-mode replication of one injection burst (epoch already bumped).

        Dirty shared state (ItemKNN's similarity matrix, popularity
        counts) is rebuilt once by the coordinator and republished into
        the live segments — safe because the write lock has drained
        every reader — then a single batched event fans out.
        """
        if not self._model.shared_static_under_injection:
            self._shared_store.publish(self._model.shared_item_state())
        records = tuple(
            InjectionRecord(
                user_id=user_id,
                profile=tuple(
                    int(v) for v in self._model.dataset.user_profile(user_id)
                ),
                owner_shard=int(self.router.shard_for_user(user_id)),
                user_state=self._model.user_state(user_id),
            )
            for user_id in user_ids
        )
        self._replicate(
            ReplicationEvent(kind="inject_batch", epoch=self._epoch, records=records)
        )

    # -- episode management ---------------------------------------------------
    def snapshot(self) -> tuple[object, int]:
        """Capture model state together with its user count.

        Atomic with respect to injections.  The read side suffices:
        snapshots only read the model, so they may overlap in-flight
        queries, but a concurrent ``inject`` (write side) must fully land
        or not have started — otherwise the captured user count and model
        state could tear apart and fail the restore-time consistency
        check.
        """
        with self._model_lock.read():
            return self._model.snapshot(), self._model.dataset.n_users

    def restore(self, snapshot: tuple[object, int]) -> None:
        """Roll the platform back to a clean episode boundary.

        An episode reset is simulation control, so *every* externally
        observable piece of serving state returns to the
        freshly-constructed baseline, not just the model:

        * every shard cache is flushed and its hit/miss/eviction counters
          reset — a reset platform never serves (or reports) work from a
          dropped episode;
        * rate-limiter windows, quotas, and denial counters reset —
          injections undone by the rollback must not keep consuming a
          client's quota, and denials from dead episodes must not skew
          per-episode budget accounting;
        * coordinator and per-shard request stats reset — throughput
          reports never double-count rolled-back traffic;
        * ``flagged_injections`` is cleared — flagged records reference
          user ids that no longer exist after the model rollback;
        * the invalidation bus forgets its delivered history.

        Under the process engine the rollback must also cross the
        process boundary: the restore bumps the epoch and publishes a
        ``resync`` replication event carrying the rolled-back model, so
        every worker replaces its replica wholesale and acknowledges the
        new version before the next query can start.  The bus history is
        cleared *after* the resync broadcast — episode control leaves no
        trace, exactly like the in-memory reset.
        """
        if not (
            isinstance(snapshot, tuple) and len(snapshot) == 2 and isinstance(snapshot[1], int)
        ):
            raise SnapshotError(
                "restore expects a snapshot from ShardedRecommendationService.snapshot"
            )
        model_snapshot, n_users = snapshot
        with self._model_lock.write():
            self._check_no_rollout("restore")
            if n_users > self._model.dataset.n_users:
                raise SnapshotError(
                    f"snapshot records {n_users} users but the platform only has "
                    f"{self._model.dataset.n_users}; snapshots must be restored onto a "
                    "later-or-equal state"
                )
            self._model.restore(model_snapshot)
            if self._model.dataset.n_users != n_users:
                raise SnapshotError(
                    f"model restore produced {self._model.dataset.n_users} users, "
                    f"snapshot recorded {n_users}"
                )
            self.versions.reset()
            self.last_rollout_rollback = None
            self.flagged_injections.clear()
            self._epoch += 1
            self._reset_serving_state()

    def _reset_serving_state(self) -> None:
        """Reset every shard to a clean slate serving the coordinator's model.

        Shared by episode :meth:`restore` (the model just rolled back)
        and :meth:`promote_rollout` (the model just moved forward):
        either way the fleet must be indistinguishable from one freshly
        constructed around ``self._model`` — shard caches flushed and
        counters zeroed, limiter windows clear, coordinator and shard
        stats zero, replicas resynced wholesale, and the bus history
        forgotten.  Caller holds the model write lock and has already
        cleared ``flagged_injections`` and advanced the epoch.
        """
        for shard in self.shards:
            shard.reset()
        self.stats.reset()
        if self._sliced:
            self._resync_sliced()
        elif self._remote:
            # Ship the model warm (a rollback drops lazy caches, a
            # promote may stage them cold), so no replica pays a rebuild.
            self._model.prewarm()
            self._replicate(
                ReplicationEvent(
                    kind="resync",
                    epoch=self._epoch,
                    model_blob=pickle.dumps(self._model),
                )
            )
        self.bus.reset()

    def _resync_sliced(self) -> None:
        """Sliced-mode episode resync: republish items, reship user slices.

        *All* shared item state is republished (not just injection-dirty
        arrays): the rollback replaced model arrays wholesale and
        invalidated parameter-derived caches (NeuralCF's fused tensor),
        so the segments must be rebuilt from the restored model.  Each
        worker then receives only its shard's rolled-back user slice —
        the resync payload is independent of catalog size, unlike the
        full-mode whole-model pickle.
        """
        self._shared_store.publish(self._model.shared_item_state())
        self.bus.publish(ReplicationEvent(kind="resync", epoch=self._epoch))
        n_users_global = self._model.dataset.n_users
        futures = [
            self._engine.submit_to(
                shard.index,
                replica_proto.resync_sliced,
                self._epoch,
                pickle.dumps(self._model.slice_users(user_ids)),
                user_ids,
                n_users_global,
            )
            for shard, user_ids in zip(self.shards, self._shard_user_ids())
        ]
        for shard, ack in zip(self.shards, self._engine.gather(futures)):
            self._verify_replica(ack.epoch, ack.model_n_users, shard.index)
            shard.apply_snapshot(ack.cache)

    # -- versioned rollout -----------------------------------------------------
    def _check_no_rollout(self, operation: str) -> None:
        """Model mutations are exclusive with an active canary window.

        An injection or restore landing mid-window would fork the fleet:
        the active model moves while the staged candidate (trained
        against the pre-mutation state) does not, so neither promote nor
        rollback could restore a consistent fleet.  Callers hold the
        model write lock.
        """
        if self._rollout is not None:
            raise RolloutError(
                f"{operation} is not allowed while version "
                f"{self._rollout.version} is in a canary window; promote or "
                "roll back the rollout first"
            )

    @property
    def rollout_active(self) -> bool:
        return self._rollout is not None

    @property
    def active_version(self) -> int:
        """The fleet-wide serving-model version number."""
        return self.versions.active

    def rollout_status(self) -> dict | None:
        """Live view of the in-flight canary window (None outside one)."""
        rollout = self._rollout
        if rollout is None:
            return None
        return {
            "version": rollout.version,
            "canary_shard": rollout.canary_shard,
            "agreement": rollout.agreement(),
            "verdict": rollout.verdict(),
            **rollout.counters(),
        }

    def stage_rollout(
        self,
        model: "Recommender",
        canary_shard: int = 0,
        guard: RolloutGuard | None = None,
    ) -> int:
        """Open a canary window serving candidate ``model`` on one shard.

        The candidate must be fitted over the *same* user and item
        universe as the serving model — routing is id-driven and must be
        identical across versions (online retraining via ``partial_fit``
        preserves this by construction: it never adds or removes users).
        Staging leaves every piece of durable fleet state untouched and
        does not advance the epoch; under the process engine the
        candidate ships to every replica as a transient full pickle (it
        never enters shared memory, so an abandoned window can never
        leak a segment).  Returns the staged version number.
        """
        with self._model_lock.write():
            self._check_no_rollout("stage_rollout")
            if not model.is_fitted:
                raise RolloutError("stage_rollout requires a fitted candidate model")
            if model.dataset.n_users != self._model.dataset.n_users:
                raise RolloutError(
                    f"candidate model has {model.dataset.n_users} users, the fleet "
                    f"serves {self._model.dataset.n_users}; user routing must be "
                    "identical across versions"
                )
            if model.dataset.n_items != self._model.dataset.n_items:
                raise RolloutError(
                    f"candidate model has {model.dataset.n_items} items, the fleet "
                    f"serves {self._model.dataset.n_items}"
                )
            if not 0 <= canary_shard < self.n_shards:
                raise RolloutError(
                    f"canary shard {canary_shard} outside fleet of {self.n_shards} shards"
                )
            guard = guard if guard is not None else RolloutGuard()
            model.prewarm()
            version = self.versions.stage()
            try:
                if self._remote:
                    blob = pickle.dumps(model)
                    futures = [
                        self._engine.submit_to(
                            shard.index,
                            replica_proto.stage_rollout_replica,
                            blob,
                            "canary" if shard.index == canary_shard else "shadow",
                            self._epoch,
                        )
                        for shard in self.shards
                    ]
                    for shard, ack in zip(self.shards, self._engine.gather(futures)):
                        self._verify_replica(ack.epoch, ack.model_n_users, shard.index)
            except Exception:
                # Leave no half-staged fleet behind: burn the version and
                # drop whatever replicas did stage before re-raising.
                self.versions.abandon(self._model.dataset.n_users)
                if self._remote:
                    self._engine.broadcast(replica_proto.unstage_rollout_replica)
                raise
            self._rollout = RolloutController(
                version=version,
                staged_model=model,
                canary_shard=canary_shard,
                guard=guard,
            )
            self.last_rollout_rollback = None
            return version

    def promote_rollout(self) -> int:
        """Close the window in the candidate's favour: it becomes *the* model.

        The staged model replaces the serving model and the whole fleet
        resets around it exactly as :meth:`restore` resets around a
        rolled-back model — caches, limiters, stats, bus history, and
        replica state all return to the freshly-deployed baseline, so a
        promoted fleet is indistinguishable from one constructed fresh
        on the candidate (the rollout-conformance suite pins this).
        Returns the now-active version number.
        """
        with self._model_lock.write():
            rollout = self._rollout
            if rollout is None:
                raise RolloutError("promote_rollout with no rollout in flight")
            if self._sliced and type(rollout.staged_model) is not type(self._model):
                # Any model may *canary* (it ships as a transient full
                # pickle), but promotion under sliced replication
                # republishes item state into the serving model's
                # existing segments, which a foreign class cannot fill.
                raise RolloutError(
                    "sliced replication publishes promoted item state into the "
                    f"serving model's segments; candidate must be a "
                    f"{type(self._model).__name__} to promote, got "
                    f"{type(rollout.staged_model).__name__} — roll back instead"
                )
            self._model = rollout.staged_model
            version = self.versions.promote(self._model.dataset.n_users)
            self._rollout = None
            self.flagged_injections.clear()
            self._epoch += 1
            self._reset_serving_state()
            return version

    def rollback_rollout(self, reason: str = "manual") -> int:
        """Close the window against the candidate: the active model stands.

        Durable fleet state was never touched by the window (canary and
        shadow scoring are side-effect-free), so dropping the staged
        model and zeroing the window's counters restores the exact
        pre-stage fleet.  Returns the burned version number.
        """
        with self._model_lock.write():
            return self._rollback_locked(reason, auto=False)

    def _rollback_locked(self, reason: str, auto: bool) -> int:
        rollout = self._rollout
        if rollout is None:
            raise RolloutError("rollback_rollout with no rollout in flight")
        version = self.versions.abandon(self._model.dataset.n_users)
        self._rollout = None
        if self._remote:
            futures = [
                self._engine.submit_to(
                    shard.index, replica_proto.unstage_rollout_replica
                )
                for shard in self.shards
            ]
            for shard, ack in zip(self.shards, self._engine.gather(futures)):
                self._verify_replica(ack.epoch, ack.model_n_users, shard.index)
        self.stats.clear_rollout_counters()
        self.last_rollout_rollback = {"version": version, "reason": reason, "auto": auto}
        return version

    def _maybe_auto_rollback(self) -> None:
        """Act on a window verdict (guard breach or canary fault), if any.

        Runs after every query, *outside* the read hold.  The verdict is
        read lock-free; the rollback itself re-checks under the write
        lock that the same window is still open (another thread may have
        resolved it first), so double rollbacks cannot happen.
        """
        rollout = self._rollout
        if rollout is None:
            return
        reason = rollout.verdict()
        if reason is None:
            return
        with self._model_lock.write():
            current = self._rollout
            if current is None or current.version != rollout.version:
                return
            self._rollback_locked(reason, auto=True)

    # -- reporting -------------------------------------------------------------
    def cache_stats(self) -> CacheStats | None:
        """Summed per-shard cache counters (None when caching is off)."""
        if self.config.cache_capacity <= 0:
            return None
        total = CacheStats()
        for shard in self.shards:
            total.hits += shard.cache.stats.hits
            total.misses += shard.cache.stats.misses
            total.evictions += shard.cache.stats.evictions
            total.invalidations += shard.cache.stats.invalidations
        return total

    def shard_summaries(self) -> list[dict[str, float]]:
        return [shard.summary() for shard in self.shards]

    def load_balance(self) -> dict[str, float]:
        """How evenly routing spread the served users across workers."""
        served = np.array([shard.stats.n_users_served for shard in self.shards], dtype=np.float64)
        mean = float(served.mean()) if served.size else 0.0
        return {
            "n_shards": float(self.n_shards),
            "mean_users_per_shard": mean,
            "max_users_per_shard": float(served.max()) if served.size else 0.0,
            "imbalance": float(served.max() / mean) if mean > 0 else 1.0,
        }
