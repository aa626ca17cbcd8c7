"""Worker-side shard replica protocol for the process execution engine.

A process-engine worker shares no memory with the coordinator, so the
shard it serves is a **replica**: the model, the shard's
:class:`~repro.serving.cache.TopKCache`, its
:class:`~repro.serving.rate_limit.RateLimiter` policies, and its
:class:`~repro.serving.service.ServiceStats` are serialized into the
worker process at pool start (:func:`install_replica`) and kept in
lockstep afterwards through explicit replication messages:

* every injection is an epoch-stamped :class:`ReplicationEvent` — the
  worker applies the same ``add_user`` the coordinator applied, installs
  the coordinator's pre-warmed scoring caches instead of rebuilding them
  (:meth:`~repro.recsys.base.Recommender.apply_prewarm`), advances its
  staleness clock, and acknowledges the new epoch;
* every episode restore is a ``resync`` event carrying the rolled-back
  model, which replaces the replica wholesale and resets serving state;
* every query slice carries the coordinator's current epoch, and a
  worker whose replica lags (or leads) raises
  :class:`~repro.errors.StaleReplicaError` instead of silently serving a
  stale model version — the detectability guarantee the replication
  property tests pin.

The functions in this module are the only code that runs inside worker
processes.  They are module-level (picklable by reference), take only
picklable arguments, and return small result records
(:class:`SliceResult` / :class:`ReplicaAck`) that the coordinator folds
into its per-shard mirrors so reports and conformance counters are
engine-independent.

:func:`resolve_slice` — the cache-lookup/batch-score/store step — is
shared with the in-memory engines' resolution path, so a slice resolves
through byte-identical logic whether the shard lives in the coordinator
process or in a worker replica.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError, StaleReplicaError
from repro.serving import shared_state
from repro.serving.cache import TopKCache
from repro.serving.rate_limit import RateLimiter
from repro.serving.service import ServiceStats, ServingConfig, resolve_slice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.base import Recommender

__all__ = [
    "ReplicationEvent",
    "InjectionRecord",
    "SliceResult",
    "ReplicaAck",
    "resolve_slice",
    "install_replica",
    "install_replica_sliced",
    "query_slice",
    "apply_event",
    "resync_sliced",
    "stage_rollout_replica",
    "unstage_rollout_replica",
    "probe_replica",
    "probe_memory",
]


@dataclass(frozen=True)
class InjectionRecord:
    """One injected user inside a batched replication event.

    ``user_id`` is the *global* id the coordinator assigned;
    ``owner_shard`` is the shard whose slice must append the user (every
    other shard only advances its global user count and staleness
    clock); ``user_state`` is the model's per-user payload
    (:meth:`~repro.recsys.base.Recommender.user_state` — e.g. MF's
    folded-in factor row) so the owner appends the coordinator's exact
    state instead of recomputing it without the item tables.
    """

    user_id: int
    profile: tuple[int, ...]
    owner_shard: int
    user_state: object = None


@dataclass(frozen=True)
class ReplicationEvent:
    """One epoch-stamped state change broadcast to every shard.

    ``kind`` is ``"inject"`` (a profile landed: ``user_id``/``profile``
    are set, ``prewarm`` carries the coordinator's freshly rebuilt lazy
    scoring caches), ``"inject_batch"`` (``records`` carries one
    :class:`InjectionRecord` per landed profile — a whole burst crosses
    the process boundary in one round trip), or ``"resync"`` (an episode
    restore: ``model_blob`` is the pickled rolled-back model that
    replaces each replica wholesale).  ``epoch`` is the model version
    the event produces; a replica must be at exactly ``epoch - 1`` to
    apply an ``inject`` (``epoch - len(records)`` for a batch) and
    acknowledges ``epoch`` once applied.
    """

    kind: str
    epoch: int
    user_id: int | None = None
    profile: tuple[int, ...] | None = None
    prewarm: object = None
    model_blob: bytes | None = None
    records: tuple[InjectionRecord, ...] | None = None


@dataclass(frozen=True)
class CacheSnapshot:
    """Counter view of a replica's cache, mirrored back to the coordinator.

    ``seq`` is the replica's state-change sequence number (every applied
    slice or event increments it): snapshots from one replica can arrive
    at the coordinator out of order when concurrent client threads
    complete their fan-outs in a different order than the worker served
    them, and the mirror must only ever move forward.
    """

    seq: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    version: int = 0
    n_entries: int = 0


@dataclass(frozen=True)
class SliceResult:
    """Outcome of one query slice resolved inside a worker replica.

    The trailing rollout fields are only nonzero while a version is
    staged on this replica: ``canary_users`` counts users this slice
    served *from the staged model* (the replica then recorded no stats
    and touched no cache — the coordinator mirrors nothing either);
    ``shadow_users``/``shadow_agree`` carry the shadow comparison for a
    slice that served the active model; ``rollout_error`` reports a
    staged-model failure (the slice fell back to the active model and
    the coordinator must roll the window back).
    """

    n_scored: int
    results: list[np.ndarray]
    elapsed: float
    epoch: int
    model_n_users: int
    cache: CacheSnapshot | None
    canary_users: int = 0
    shadow_users: int = 0
    shadow_agree: int = 0
    rollout_error: str | None = None


@dataclass(frozen=True)
class ReplicaAck:
    """Acknowledgement that a replica applied a replication event."""

    shard_index: int
    epoch: int
    model_n_users: int
    cache: CacheSnapshot | None


# resolve_slice — the single definition of slice semantics — lives in
# repro.serving.service (the coordinator's in-memory engines route
# through it too).  It is re-exported so worker-process call sites keep
# importing it from the replica protocol module.


class _GlobalView:
    """Global-user-id facade over a sliced model.

    A sliced replica's dataset and per-user arrays are renumbered to
    local ids ``0..m-1``; query slices arrive addressed by global id.
    :func:`~repro.serving.service.resolve_slice` only ever calls
    ``top_k_batch`` on the model it is given, so this thin wrapper —
    translate global → local, delegate — is the complete serving
    surface.  Cache keys stay *global* (the wrapper sits between the
    cache and the model), so hit/miss/LRU behaviour is identical to full
    replication by construction.
    """

    def __init__(self, model: "Recommender", global_to_local: dict[int, int]) -> None:
        self._model = model
        self._global_to_local = global_to_local

    def top_k_batch(
        self, user_ids: Sequence[int] | np.ndarray, k: int, exclude_seen: bool = True
    ) -> list[np.ndarray]:
        mapping = self._global_to_local
        users = np.asarray(user_ids, dtype=np.int64)
        try:
            local = np.fromiter(
                (mapping[int(u)] for u in users), dtype=np.int64, count=users.size
            )
        except KeyError as exc:
            raise StaleReplicaError(
                f"user {exc.args[0]} is not in this shard's slice"
            ) from None
        return self._model.top_k_batch(local, k, exclude_seen=exclude_seen)


class _ReplicaState:
    """Everything one worker process holds for its shard."""

    def __init__(
        self,
        shard_index: int,
        model: "Recommender",
        config: ServingConfig,
        epoch: int,
        shard_latency_s: float,
    ) -> None:
        self.shard_index = shard_index
        self.model = model
        self.config = config
        self.epoch = epoch
        self.shard_latency_s = shard_latency_s
        self.seq = 0  # state-change counter; see CacheSnapshot.seq
        self.cache = (
            TopKCache(
                capacity=config.cache_capacity,
                ttl_injections=config.ttl_injections,
                n_items=model.dataset.n_items,
            )
            if config.cache_capacity > 0
            else None
        )
        # Replicated alongside the cache so the worker owns the complete
        # shard serving state; admission itself stays at the coordinator
        # front door (a client's admissions must serialize *before*
        # fan-out), so these windows see no traffic in this deployment.
        self.limiter = RateLimiter(
            default_policy=config.default_policy,
            per_client=dict(config.client_policies),
        )
        self.stats = ServiceStats()
        # Sliced-mode state (see install_replica_sliced): the model above
        # holds only this shard's user slice, addressed through a
        # global→local id map; the item side is attached shared memory.
        self.mode = "full"
        self.serving_model: object = model  # what resolve_slice scores with
        self.global_to_local: dict[int, int] | None = None
        self.n_users_global: int | None = None
        self.attached: shared_state.AttachedSharedState | None = None
        # Versioned-rollout window state: a staged candidate model (always
        # a *full* model — global ids score directly, even on a sliced
        # replica) and this shard's role in the window.  Transient by
        # design: promote replaces the replica wholesale via resync,
        # rollback unstages, and any resync clears both.
        self.staged_model: "Recommender | None" = None
        self.rollout_role: str | None = None  # "canary" | "shadow" | None

    def model_n_users(self) -> int:
        """Global user count (what acks/results/probes report).

        A sliced replica's own dataset holds only its shard's users; the
        coordinator's epoch verification compares against the *global*
        count, which the replica mirrors through install/inject/resync.
        """
        if self.mode == "sliced":
            return int(self.n_users_global)
        return self.model.dataset.n_users

    def enter_sliced(
        self,
        model: "Recommender",
        user_ids: np.ndarray,
        n_users_global: int,
    ) -> None:
        """Point serving state at a (new) user slice."""
        self.mode = "sliced"
        self.model = model
        self.global_to_local = {
            int(user_id): local for local, user_id in enumerate(np.asarray(user_ids))
        }
        self.serving_model = _GlobalView(model, self.global_to_local)
        self.n_users_global = int(n_users_global)

    def cache_snapshot(self) -> CacheSnapshot | None:
        if self.cache is None:
            return None
        stats = self.cache.stats
        return CacheSnapshot(
            seq=self.seq,
            hits=stats.hits,
            misses=stats.misses,
            evictions=stats.evictions,
            invalidations=stats.invalidations,
            version=self.cache.version,
            n_entries=len(self.cache),
        )

    def ack(self) -> ReplicaAck:
        return ReplicaAck(
            shard_index=self.shard_index,
            epoch=self.epoch,
            model_n_users=self.model_n_users(),
            cache=self.cache_snapshot(),
        )


#: The one replica this worker process serves (single-worker pools mean
#: exactly one shard's state per process).
_REPLICA: _ReplicaState | None = None


def _require_replica() -> _ReplicaState:
    if _REPLICA is None:
        raise ConfigurationError("replica worker used before install_replica")
    return _REPLICA


def install_replica(
    shard_index: int,
    model_blob: bytes,
    config: ServingConfig,
    epoch: int,
    shard_latency_s: float,
) -> ReplicaAck:
    """Deserialize the shard's state into this worker (pool start).

    ``model_blob`` is pickled once by the coordinator and shipped to
    every worker, so N replicas cost one serialization.
    """
    global _REPLICA
    _REPLICA = _ReplicaState(
        shard_index=shard_index,
        model=pickle.loads(model_blob),
        config=config,
        epoch=epoch,
        shard_latency_s=shard_latency_s,
    )
    return _REPLICA.ack()


def install_replica_sliced(
    shard_index: int,
    slice_blob: bytes,
    user_ids: np.ndarray,
    handle: shared_state.SharedStateHandle,
    config: ServingConfig,
    epoch: int,
    shard_latency_s: float,
    n_users_global: int,
) -> ReplicaAck:
    """Install a *sliced* replica: this shard's user slice + shared items.

    ``slice_blob`` pickles only the shard's per-user state (user rows,
    profiles) — catalog-sized arrays arrive by mapping the coordinator's
    shared-memory segments named in ``handle``, so install payload and
    per-worker RSS stay proportional to the shard's user count, not the
    catalog.
    """
    global _REPLICA
    model = pickle.loads(slice_blob)
    state = _ReplicaState(
        shard_index=shard_index,
        model=model,
        config=config,
        epoch=epoch,
        shard_latency_s=shard_latency_s,
    )
    state.attached = shared_state.attach(handle)
    model.attach_shared_item_state(state.attached.views)
    state.enter_sliced(model, np.asarray(user_ids, dtype=np.int64), n_users_global)
    _REPLICA = state
    return state.ack()


def query_slice(
    expected_epoch: int,
    users: Sequence[int] | np.ndarray,
    k: int,
    exclude_seen: bool,
    use_cache: bool,
) -> SliceResult:
    """Resolve one slice against the replica at ``expected_epoch``.

    The modelled shard-worker RPC latency is slept before the timed
    region and the busy clock covers only resolution, matching the
    in-memory engines' accounting (busy time stays pure compute).
    """
    state = _require_replica()
    if state.epoch != expected_epoch:
        raise StaleReplicaError(
            f"shard {state.shard_index} replica is at epoch {state.epoch}, "
            f"coordinator expected {expected_epoch}"
        )
    if state.shard_latency_s > 0.0:
        time.sleep(state.shard_latency_s)
    rollout_error: str | None = None
    if state.staged_model is not None and state.rollout_role == "canary":
        # Canary: serve the staged model, side-effect-free — no cache,
        # no stats, no seq bump — so a rollback leaves the shard's
        # durable state exactly as if the window never opened.  A staged
        # model that raises degrades the slice to the active model below
        # and reports the failure for the coordinator to act on.
        t0 = time.perf_counter()
        try:
            n_scored, results = resolve_slice(
                state.staged_model, None, users, k, exclude_seen, False
            )
        except StaleReplicaError:
            raise
        except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
            rollout_error = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            return SliceResult(
                n_scored=n_scored,
                results=results,
                elapsed=elapsed,
                epoch=state.epoch,
                model_n_users=state.model_n_users(),
                cache=state.cache_snapshot(),
                canary_users=len(users),
            )
    t0 = time.perf_counter()
    n_scored, results = resolve_slice(
        state.serving_model, state.cache, users, k, exclude_seen, use_cache
    )
    elapsed = time.perf_counter() - t0
    shadow_users = 0
    shadow_agree = 0
    if (
        rollout_error is None
        and state.staged_model is not None
        and state.rollout_role == "shadow"
    ):
        # Shadow: the active model's lists were served above; score the
        # staged model on the side and count exact top-k agreement.
        try:
            _, staged_lists = resolve_slice(
                state.staged_model, None, users, k, exclude_seen, False
            )
        except StaleReplicaError:
            raise
        except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
            rollout_error = f"{type(exc).__name__}: {exc}"
        else:
            shadow_users = len(users)
            shadow_agree = sum(
                int(np.array_equal(served, staged))
                for served, staged in zip(results, staged_lists)
            )
    state.stats.record_request(len(users), n_scored, elapsed)
    state.seq += 1
    return SliceResult(
        n_scored=n_scored,
        results=results,
        elapsed=elapsed,
        epoch=state.epoch,
        model_n_users=state.model_n_users(),
        cache=state.cache_snapshot(),
        shadow_users=shadow_users,
        shadow_agree=shadow_agree,
        rollout_error=rollout_error,
    )


def _apply_inject_batch(state: _ReplicaState, event: ReplicationEvent) -> None:
    """Apply a coalesced injection burst: one event, N users, one ack.

    A sliced replica appends only the users its shard owns (installing
    the coordinator's shipped per-user state) and advances the global
    user count and staleness clock for every record; a full replica
    replays every ``add_user`` then installs the post-burst pre-warm
    payload once.
    """
    records = event.records if event.records is not None else ()
    if event.epoch != state.epoch + len(records):
        raise StaleReplicaError(
            f"shard {state.shard_index} replica at epoch {state.epoch} received "
            f"out-of-order injection batch ending at epoch {event.epoch} "
            f"({len(records)} records)"
        )
    if state.mode == "sliced":
        for record in records:
            if record.user_id != state.n_users_global:
                raise StaleReplicaError(
                    f"shard {state.shard_index} replica expected user id "
                    f"{state.n_users_global} next, coordinator recorded {record.user_id}"
                )
            if record.owner_shard == state.shard_index:
                local_id = state.model.append_sliced_user(
                    list(record.profile), record.user_state
                )
                state.global_to_local[record.user_id] = local_id
            state.n_users_global += 1
            if state.cache is not None:
                state.cache.note_injection()
    else:
        for record in records:
            user_id = state.model.add_user(list(record.profile))
            if user_id != record.user_id:
                raise StaleReplicaError(
                    f"shard {state.shard_index} replica assigned user id {user_id} "
                    f"to an injection the coordinator recorded as {record.user_id}"
                )
            if state.cache is not None:
                state.cache.note_injection()
        state.model.apply_prewarm(event.prewarm)
    state.epoch = event.epoch


def apply_event(event: ReplicationEvent) -> ReplicaAck:
    """Apply one replication event to this worker's replica."""
    state = _require_replica()
    if event.kind == "inject":
        if event.epoch != state.epoch + 1:
            raise StaleReplicaError(
                f"shard {state.shard_index} replica at epoch {state.epoch} received "
                f"out-of-order injection epoch {event.epoch}"
            )
        user_id = state.model.add_user(list(event.profile))
        if user_id != event.user_id:
            raise StaleReplicaError(
                f"shard {state.shard_index} replica assigned user id {user_id} "
                f"to an injection the coordinator recorded as {event.user_id}"
            )
        state.model.apply_prewarm(event.prewarm)
        if state.cache is not None:
            state.cache.note_injection()
        state.epoch = event.epoch
    elif event.kind == "inject_batch":
        _apply_inject_batch(state, event)
    elif event.kind == "resync":
        state.model = pickle.loads(event.model_blob)
        state.mode = "full"
        state.serving_model = state.model
        state.staged_model = None
        state.rollout_role = None
        if state.cache is not None:
            # Entries clear and the version counter rewinds with them
            # (flush defines version as injections since construction/
            # flush), matching the coordinator-side shard reset.
            state.cache.flush()
            state.cache.stats.reset()
        state.limiter.reset()
        state.stats.reset()
        state.epoch = event.epoch
    else:
        raise ConfigurationError(f"unknown replication event kind {event.kind!r}")
    state.seq += 1
    return state.ack()


def resync_sliced(
    epoch: int,
    slice_blob: bytes,
    user_ids: np.ndarray,
    n_users_global: int,
) -> ReplicaAck:
    """Episode restore for a sliced replica: swap in the rolled-back slice.

    The worker keeps its shared-memory attachments — the coordinator
    republished the rolled-back item state into the *same* segments
    before this call — so the resync payload is one user slice,
    independent of catalog size.
    """
    state = _require_replica()
    if state.attached is None:
        raise ConfigurationError("resync_sliced requires a sliced replica")
    model = pickle.loads(slice_blob)
    model.attach_shared_item_state(state.attached.views)
    state.enter_sliced(model, np.asarray(user_ids, dtype=np.int64), n_users_global)
    state.staged_model = None
    state.rollout_role = None
    if state.cache is not None:
        state.cache.flush()
        state.cache.stats.reset()
    state.limiter.reset()
    state.stats.reset()
    state.epoch = epoch
    state.seq += 1
    return state.ack()


def stage_rollout_replica(model_blob: bytes, role: str, expected_epoch: int) -> ReplicaAck:
    """Stage a candidate model on this replica for a canary window.

    ``model_blob`` is always a *full* pickled model — even sliced
    replicas hold the complete candidate, because staged state is
    transient (it never enters shared memory, so rollback can never leak
    a segment) and global user ids then score directly.  Staging does
    not advance the epoch: the replica's durable state is untouched.
    """
    state = _require_replica()
    if state.epoch != expected_epoch:
        raise StaleReplicaError(
            f"shard {state.shard_index} replica is at epoch {state.epoch}, "
            f"coordinator staged a rollout at epoch {expected_epoch}"
        )
    if role not in ("canary", "shadow"):
        raise ConfigurationError(f"rollout role must be 'canary' or 'shadow', got {role!r}")
    state.staged_model = pickle.loads(model_blob)
    state.rollout_role = role
    state.seq += 1
    return state.ack()


def unstage_rollout_replica() -> ReplicaAck:
    """Drop the staged candidate (rollback); durable shard state stands."""
    state = _require_replica()
    state.staged_model = None
    state.rollout_role = None
    state.seq += 1
    return state.ack()


def probe_replica() -> dict:
    """Diagnostic view of the replica (epoch checks, pre-warm accounting).

    ``n_users`` is the *global* count in sliced mode — the value every
    coordinator-side consistency check compares against.
    """
    state = _require_replica()
    return {
        "shard": state.shard_index,
        "epoch": state.epoch,
        "n_users": state.model_n_users(),
        "n_requests": state.stats.n_requests,
        "cache_entries": len(state.cache) if state.cache is not None else 0,
        "prewarm": state.model.prewarm_stats(),
        "staged": state.staged_model is not None,
        "rollout_role": state.rollout_role,
    }


def probe_memory() -> dict:
    """This worker process's resident set size plus replica shape facts.

    Reads ``/proc/self/status`` (Linux; the memory bench's platform)
    rather than pulling in a profiler dependency.  Runs with or without
    an installed replica so the bench can also sample baseline worker
    RSS.
    """
    rss_kb = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    state = _REPLICA
    out: dict = {"rss_kb": rss_kb}
    if state is not None:
        out["shard"] = state.shard_index
        out["mode"] = state.mode
        out["n_local_users"] = state.model.dataset.n_users
        out["n_users"] = state.model_n_users()
    return out
