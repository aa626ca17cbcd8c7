"""Serving benchmark: batched-vs-per-user query cost and traffic replay.

Two measurements, shared by the ``repro-bench serve`` CLI command (which
writes ``BENCH_serving.json`` in CI) and the heavyweight pytest benchmark
in ``benchmarks/test_serving.py``:

* **cohort speedup** — the wall-time ratio between a per-user ``top_k``
  Python loop and one ``top_k_batch`` call for a fixed cohort, on the MF
  source embeddings, the PinSage target model, and a NeuralCF scorer.
  The NeuralCF model is benchmarked at a production-representative
  embedding width (default 48; the paper trains at 8, but serving cost is
  dominated by the fusion head and real deployments run wider), trained
  for only a couple of epochs — scoring cost does not depend on model
  quality.
* **traffic replay** — organic Zipf load through a one-shard
  :class:`~repro.serving.sharded.ShardedRecommendationService`, uncached
  vs cached (with background injections exercising invalidation),
  reporting throughput and latency percentiles.
* **shard scaling** — the service replayed per shard count, reporting
  the *measured* wall clock of the real execution engines (serial
  fan-out, the thread-parallel worker pool, and the process pool with
  replicated shard state) side by side.

The platform model is snapshotted around the replay so the shared
prepared experiment is returned to its pre-benchmark state.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.recsys.base import Recommender
from repro.recsys.neural_cf import NeuralCF
from repro.serving import (
    ENGINES,
    AsyncServingFront,
    FrontConfig,
    ServingConfig,
    ShardedRecommendationService,
    StageTimers,
    TrafficPattern,
    TrafficReport,
    TrafficSimulator,
    open_loop_plan,
    profile_callable,
)

__all__ = [
    "measure_cohort_speedup",
    "run_hotpath_profile",
    "run_latency_curve",
    "run_shard_scaling",
    "run_serving_benchmark",
]


def measure_cohort_speedup(
    model: Recommender,
    cohort: Sequence[int],
    k: int = 20,
    repeats: int = 5,
) -> dict[str, float]:
    """Best-of-``repeats`` timing of per-user vs batched top-k for a cohort.

    Also verifies element-wise identity of the two paths — a speedup that
    changes results would be a correctness bug, not an optimisation.
    """
    cohort = [int(u) for u in cohort]
    batch = model.top_k_batch(cohort, k)
    per_user = [model.top_k(u, k) for u in cohort]
    identical = all(np.array_equal(a, b) for a, b in zip(per_user, batch))
    t_per = min(
        _timed(lambda: [model.top_k(u, k) for u in cohort]) for _ in range(repeats)
    )
    t_batch = min(_timed(lambda: model.top_k_batch(cohort, k)) for _ in range(repeats))
    return {
        "per_user_ms": t_per * 1e3,
        "batch_ms": t_batch * 1e3,
        "speedup": t_per / t_batch if t_batch > 0 else float("inf"),
        "identical": float(identical),
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _fastest_replay(
    model: Recommender,
    n_shards: int,
    engine: str,
    pattern: TrafficPattern,
    repeats: int,
    shard_latency_s: float,
) -> tuple[TrafficReport, dict[str, float]]:
    """The fastest of ``repeats`` fresh-service replays under one engine.

    Returns that trial's report and its service's load balance.  Each
    trial's service (and its worker pool, under the parallel engines) is
    closed as soon as the replay ends.
    """
    best: tuple[TrafficReport, dict[str, float]] | None = None
    for _ in range(max(1, repeats)):
        with ShardedRecommendationService(
            model, n_shards=n_shards, engine=engine, shard_latency_s=shard_latency_s
        ) as service:
            report = TrafficSimulator(pattern).run(service)
            if best is None or report.duration_s < best[0].duration_s:
                best = (report, service.load_balance())
    return best


def run_shard_scaling(
    model: Recommender,
    shard_counts: Sequence[int] = (1, 2, 4, 7),
    k: int = 20,
    n_requests: int = 120,
    cohort_size: int = 64,
    workload: str = "diurnal",
    seed: int = 0,
    repeats: int = 3,
    engines: Sequence[str] = ("serial", "threaded", "process"),
    shard_latency_s: float = 0.002,
) -> dict:
    """Measured throughput scaling of the service over ``shard_counts``.

    Each shard count replays the same workload-shaped, fixed-cohort
    request stream through a :class:`ShardedRecommendationService` under
    every requested engine and records the real wall clock
    (``entry["measured"]``).  ``shard_latency_s`` models the per-slice
    RPC/service latency of a remote shard worker: the threaded and
    process engines overlap those waits — and the GIL-releasing BLAS
    scoring (threads, multi-core hosts) or *all* python-level scoring
    (processes) — across shards, while the serial engine pays them in
    sequence.  ``<engine>_speedup_vs_serial`` is the measured wall-clock
    ratio of each parallel engine against the serial fan-out at the same
    shard count (the legacy ``speedup_vs_serial`` key remains the
    threaded ratio), and ``<engine>_scale_vs_1`` compares each engine's
    users/s against its own 1-shard baseline.  ``load_balance`` (how
    evenly routing spread the served users) comes from the first
    engine's fastest trial; routing is deterministic, so every trial
    agrees on it.

    Uses whole-cohort requests (``cohort_size`` users each) so per-shard
    work is scoring-dominated rather than per-request overhead.  A
    1-shard deployment is always included — it is the ``scale_vs_1``
    denominator even when ``shard_counts`` omits it.  Each
    (deployment, engine) pair replays ``repeats`` times on a fresh
    service and keeps the fastest run, so one scheduler hiccup on a busy
    machine cannot skew the ratios.
    """
    engines = tuple(engines)
    if not engines or any(e not in ENGINES for e in engines):
        raise ConfigurationError(
            f"engines must be a non-empty subset of {ENGINES}, got {engines!r}"
        )
    pattern = TrafficPattern(
        n_requests=n_requests,
        k=k,
        min_batch=cohort_size,
        max_batch=cohort_size,
        seed=seed,
        workload=workload,
        base_rate=3.0,
        horizon_ticks=max(1, n_requests // 3),
    )
    results: dict[str, dict] = {}
    measured_baselines: dict[str, float] = {}
    for n_shards in sorted({1} | {int(c) for c in shard_counts}):
        trials = {
            engine: _fastest_replay(model, n_shards, engine, pattern, repeats, shard_latency_s)
            for engine in engines
        }
        report, balance = trials[engines[0]]
        entry = {
            "n_shards": n_shards,
            "n_requests": report.n_requests,
            "n_users_served": report.n_users_served,
            "load_balance": balance,
        }
        walls = {engine: trial.duration_s for engine, (trial, _) in trials.items()}
        measured: dict[str, float] = {}
        for engine in engines:
            wall = walls[engine]
            users_per_s = report.n_users_served / wall if wall > 0 else 0.0
            measured[f"{engine}_wall_s"] = wall
            measured[f"{engine}_users_per_s"] = users_per_s
            if n_shards == 1:
                measured_baselines[engine] = users_per_s
            baseline = measured_baselines.get(engine, 0.0)
            measured[f"{engine}_scale_vs_1"] = users_per_s / baseline if baseline > 0 else 0.0
        if "serial" in walls:
            for other in engines:
                if other == "serial":
                    continue
                measured[f"{other}_speedup_vs_serial"] = (
                    walls["serial"] / walls[other] if walls[other] > 0 else 0.0
                )
        if "threaded_speedup_vs_serial" in measured:
            # Legacy key from the two-engine era; CI gates and committed
            # artifacts read it, so it stays an alias for the threaded ratio.
            measured["speedup_vs_serial"] = measured["threaded_speedup_vs_serial"]
        entry["measured"] = measured
        results[str(n_shards)] = entry
    return {
        "workload": workload,
        "cohort_size": cohort_size,
        "k": k,
        "engines": list(engines),
        "shard_latency_s": shard_latency_s,
        "per_shard_count": results,
    }


def run_hotpath_profile(
    model: Recommender,
    n_shards: int = 4,
    engine: str = "serial",
    n_requests: int = 200,
    cohort_size: int = 64,
    k: int = 20,
    cache_capacity: int = 4096,
    ttl_injections: int = 0,
    inject_every: int = 0,
    workload: str | None = None,
    seed: int = 0,
    shard_latency_s: float = 0.0,
    top: int = 12,
) -> dict:
    """Profile the serving hot path: per-stage timers plus cProfile.

    Replays one fixed-cohort traffic pattern twice against a fresh
    sharded deployment (restored to the same snapshot in between): once
    uninstrumented — the honest throughput number — and once with a
    :class:`~repro.serving.profiling.StageTimers` attached and cProfile
    running, which attributes the wall clock to the five hot-path stages
    (admission / routing / cache / scoring / merge) and to the top
    functions by self time.  Backs the ``repro-bench profile``
    subcommand.

    Stage timers live in coordinator memory, so ``engine`` must be an
    in-memory engine (``serial``, ``threaded``, or ``async``); under
    ``threaded`` the stage totals sum across concurrent shard workers
    (cumulative busy time, not elapsed wall clock).

    Under ``async`` the replay goes through the
    :class:`~repro.serving.async_front.AsyncServingFront` as one closed
    burst (every request arrives at t=0 into an unbounded-enough queue),
    so the ``queue`` stage — admission-queue wait, arrival→start — is
    populated and reported as its own ns/user share alongside the
    service-side stages.
    """
    if engine not in ("serial", "threaded", "async"):
        raise ConfigurationError(
            f"run_hotpath_profile requires an in-memory engine "
            f"(serial/threaded/async), got {engine!r}"
        )
    if engine == "async":
        if inject_every:
            raise ConfigurationError(
                "inject_every is not supported under the async front profile"
            )
        return _async_hotpath_profile(
            model,
            n_shards=n_shards,
            n_requests=n_requests,
            cohort_size=cohort_size,
            k=k,
            cache_capacity=cache_capacity,
            ttl_injections=ttl_injections,
            workload=workload,
            seed=seed,
            shard_latency_s=shard_latency_s,
            top=top,
        )
    config = ServingConfig(
        cache_capacity=cache_capacity, ttl_injections=ttl_injections, engine=engine
    )
    pattern = TrafficPattern(
        n_requests=n_requests,
        k=k,
        min_batch=cohort_size,
        max_batch=cohort_size,
        seed=seed,
        inject_every=inject_every,
        workload=workload,
    )
    with ShardedRecommendationService(
        model, n_shards=n_shards, config=config, shard_latency_s=shard_latency_s
    ) as service:
        base = service.snapshot()
        plain = TrafficSimulator(pattern).run(service)
        service.restore(base)
        timers = StageTimers()
        service.profiler = timers
        try:
            profiled, top_rows = profile_callable(
                lambda: TrafficSimulator(pattern).run(service), top=top
            )
        finally:
            service.profiler = None
        service.restore(base)
    return {
        "engine": engine,
        "n_shards": n_shards,
        "n_requests": n_requests,
        "cohort_size": cohort_size,
        "k": k,
        "cache_capacity": cache_capacity,
        "ttl_injections": ttl_injections,
        "inject_every": inject_every,
        "shard_latency_s": shard_latency_s,
        "uninstrumented": {
            "duration_s": plain.duration_s,
            "users_per_s": plain.users_per_s,
            "requests_per_s": plain.requests_per_s,
            "n_users_served": plain.n_users_served,
            "cache_hit_rate": plain.cache_hit_rate,
        },
        "instrumented": {
            "duration_s": profiled.duration_s,
            "users_per_s": profiled.users_per_s,
        },
        "stages": timers.summary(n_users_served=profiled.n_users_served),
        "top_functions": top_rows,
    }


def _burst_plan(n_users: int, n_requests: int, cohort_size: int, k: int, seed: int):
    """An all-at-once arrival plan (every request lands at ~t=0).

    Implemented as an open-loop plan at an absurd offered rate, so the
    cohort sampling stays identical to the latency-curve plans.
    """
    return open_loop_plan(
        n_users,
        offered_users_per_s=1e12,
        n_requests=n_requests,
        cohort_size=cohort_size,
        k=k,
        workload="steady",
        seed=seed,
    )


def _async_hotpath_profile(
    model: Recommender,
    n_shards: int,
    n_requests: int,
    cohort_size: int,
    k: int,
    cache_capacity: int,
    ttl_injections: int,
    workload: str | None,
    seed: int,
    shard_latency_s: float,
    top: int,
) -> dict:
    """Async-front leg of :func:`run_hotpath_profile` (same report shape)."""
    config = ServingConfig(
        cache_capacity=cache_capacity, ttl_injections=ttl_injections, engine="async"
    )
    front_config = FrontConfig(
        max_queue=max(1, n_requests),
        policy="block",
        admission_timeout_s=None,
    )
    with ShardedRecommendationService(
        model, n_shards=n_shards, config=config, shard_latency_s=shard_latency_s
    ) as service:
        plan = (
            _burst_plan(service.n_users, n_requests, cohort_size, k, seed)
            if workload is None
            else open_loop_plan(
                service.n_users,
                # Shaped arrivals at roughly the serial-RPC ceiling, so the
                # queue actually fills and the queue stage measures real wait.
                offered_users_per_s=32_000.0,
                n_requests=n_requests,
                cohort_size=cohort_size,
                k=k,
                workload=workload,
                seed=seed,
            )
        )
        base = service.snapshot()

        def hit_rate(before, after) -> float | None:
            if after is None:
                return None
            lookups = after.lookups - (before.lookups if before else 0)
            hits = after.hits - (before.hits if before else 0)
            return hits / lookups if lookups else 0.0

        cache_before = service.cache_stats()
        plain = AsyncServingFront(service, front_config).replay(plan)
        plain_hit_rate = hit_rate(cache_before, service.cache_stats())
        service.restore(base)
        timers = StageTimers()
        service.profiler = timers
        try:
            profiled, top_rows = profile_callable(
                lambda: AsyncServingFront(service, front_config).replay(plan), top=top
            )
        finally:
            service.profiler = None
        service.restore(base)
    return {
        "engine": "async",
        "n_shards": n_shards,
        "n_requests": n_requests,
        "cohort_size": cohort_size,
        "k": k,
        "cache_capacity": cache_capacity,
        "ttl_injections": ttl_injections,
        "inject_every": 0,
        "shard_latency_s": shard_latency_s,
        "uninstrumented": {
            "duration_s": plain.duration_s,
            "users_per_s": plain.users_per_s,
            "requests_per_s": plain.requests_per_s,
            "n_users_served": plain.n_users_served,
            "cache_hit_rate": plain_hit_rate,
        },
        "instrumented": {
            "duration_s": profiled.duration_s,
            "users_per_s": profiled.users_per_s,
        },
        "stages": timers.summary(n_users_served=profiled.n_users_served),
        "top_functions": top_rows,
    }


def run_latency_curve(
    model: Recommender,
    n_shards: int = 4,
    engines: Sequence[str] = ("threaded", "async"),
    workloads: Sequence[str] = ("steady", "flash"),
    offered_loads: Sequence[float] = (8_000, 16_000, 32_000, 48_000, 64_000),
    n_requests: int = 180,
    cohort_size: int = 64,
    k: int = 20,
    shard_latency_s: float = 0.002,
    cache_capacity: int = 4096,
    max_queue: int = 64,
    policy: str = "block",
    admission_timeout_s: float | None = 2.0,
    max_concurrency: int = 16,
    seed: int = 0,
    slo_p99_ms: float = 50.0,
) -> dict:
    """Latency-throughput curve per engine under open-loop offered load.

    For each engine, workload shape, and offered load (users/s), replays
    the *same* timestamped request plan through an
    :class:`~repro.serving.async_front.AsyncServingFront` over a fresh
    sharded deployment, and records arrival→completion percentiles
    (queueing latency — what a client feels), queue wait, service time,
    achieved throughput, and the denial split.  The plan is identical
    across engines at a given (workload, load), so curves are directly
    comparable; the knee per curve is the highest offered load the
    engine still substantially clears (achieved ≥ 90% of offered), and
    ``max_load_within_slo`` the highest load whose p99 queueing latency
    stays under ``slo_p99_ms`` with nothing denied.

    A closing ``peak`` probe per engine replays one all-at-once burst
    through an unbounded queue — the engine's measured throughput
    ceiling with arrival pacing taken out — which is the number the
    ``BENCH_latency.json`` CI floor gates (async must clear the ~32k
    users/s serial-RPC ceiling at 4 shards).
    """
    engines = tuple(engines)
    if not engines or any(e not in ENGINES for e in engines):
        raise ConfigurationError(
            f"engines must be a non-empty subset of {ENGINES}, got {engines!r}"
        )
    if "process" in engines:
        raise ConfigurationError(
            "the latency curve drives in-memory engines only (process replicas "
            "measure replication, not queueing)"
        )
    front_config = FrontConfig(
        max_queue=max_queue,
        policy=policy,
        admission_timeout_s=admission_timeout_s,
        max_concurrency=max_concurrency,
    )
    per_engine: dict[str, dict] = {}
    for engine in engines:
        config = ServingConfig(cache_capacity=cache_capacity, engine=engine)
        with ShardedRecommendationService(
            model, n_shards=n_shards, config=config, shard_latency_s=shard_latency_s
        ) as service:
            base = service.snapshot()
            curves: dict[str, dict] = {}
            for workload in workloads:
                points = []
                for load in offered_loads:
                    plan = open_loop_plan(
                        service.n_users,
                        offered_users_per_s=float(load),
                        n_requests=n_requests,
                        cohort_size=cohort_size,
                        k=k,
                        workload=workload,
                        seed=seed,
                    )
                    report = AsyncServingFront(service, front_config).replay(plan)
                    service.restore(base)
                    points.append(
                        {
                            "offered_users_per_s": float(load),
                            "achieved_users_per_s": report.users_per_s,
                            "n_offered": report.n_offered,
                            "n_ok": report.n_ok,
                            "n_shed": report.n_shed,
                            "n_timed_out": report.n_timed_out,
                            "n_rate_limited": report.n_rate_limited,
                            "n_failed": report.n_failed,
                            "peak_occupancy": report.peak_occupancy,
                            "latency": report.latency,
                            "queue_wait": report.queue_wait,
                            "service_time": report.service_time,
                        }
                    )
                cleared = [
                    p["offered_users_per_s"]
                    for p in points
                    if p["achieved_users_per_s"] >= 0.9 * p["offered_users_per_s"]
                ]
                within_slo = [
                    p["offered_users_per_s"]
                    for p in points
                    if p["latency"]["p99_ms"] <= slo_p99_ms
                    and p["n_ok"] == p["n_offered"]
                ]
                curves[workload] = {
                    "points": points,
                    "knee_users_per_s": max(cleared) if cleared else 0.0,
                    "max_load_within_slo": max(within_slo) if within_slo else 0.0,
                }
            peak_front = AsyncServingFront(
                service,
                FrontConfig(
                    max_queue=max(1, n_requests),
                    policy="block",
                    admission_timeout_s=None,
                    max_concurrency=max_concurrency,
                ),
            )
            peak = peak_front.replay(
                _burst_plan(service.n_users, n_requests, cohort_size, k, seed)
            )
            service.restore(base)
            per_engine[engine] = {
                "workloads": curves,
                "peak": {
                    "users_per_s": peak.users_per_s,
                    "requests_per_s": peak.requests_per_s,
                    "latency": peak.latency,
                    "service_time": peak.service_time,
                },
            }
    return {
        "n_shards": n_shards,
        "cohort_size": cohort_size,
        "k": k,
        "n_requests": n_requests,
        "shard_latency_s": shard_latency_s,
        "offered_loads": [float(load) for load in offered_loads],
        "workloads": list(workloads),
        "slo_p99_ms": slo_p99_ms,
        "front": {
            "max_queue": max_queue,
            "policy": policy,
            "admission_timeout_s": admission_timeout_s,
            "max_concurrency": max_concurrency,
        },
        "engines": per_engine,
    }


def run_serving_benchmark(
    prep,
    cohort_size: int = 64,
    k: int = 20,
    n_requests: int = 200,
    repeats: int = 5,
    ncf_factors: int = 48,
    ncf_epochs: int = 2,
    seed: int = 0,
    shard_counts: Sequence[int] = (1, 2, 4, 7),
    workload: str = "diurnal",
    engines: Sequence[str] = ("serial", "threaded", "process"),
    shard_latency_s: float = 0.002,
) -> dict:
    """Full serving benchmark against a prepared experiment.

    Returns a JSON-serialisable dict with per-model cohort speedups and
    uncached/cached traffic replay reports.
    """
    target_model = prep.model
    cohort = list(range(min(cohort_size, prep.trained.train_dataset.n_users)))
    source_cohort = list(range(min(cohort_size, prep.cross.source.n_users)))

    ncf = NeuralCF(n_factors=ncf_factors, n_epochs=ncf_epochs, seed=seed).fit(
        prep.trained.train_dataset.copy()
    )
    speedups = {
        "mf": measure_cohort_speedup(prep.mf, source_cohort, k=k, repeats=repeats),
        "neural_cf": measure_cohort_speedup(ncf, cohort, k=k, repeats=repeats),
        "pinsage": measure_cohort_speedup(target_model, cohort, k=k, repeats=repeats),
    }

    # Traffic replay: uncached vs cached-with-injections, on the target model.
    pattern = TrafficPattern(n_requests=n_requests, k=k, seed=seed)
    uncached_service = ShardedRecommendationService(target_model)
    base_snapshot = uncached_service.snapshot()
    uncached = TrafficSimulator(pattern).run(uncached_service).to_dict()

    cached_service = ShardedRecommendationService(
        target_model, config=ServingConfig(cache_capacity=4096)
    )
    cached_pattern = TrafficPattern(
        n_requests=n_requests, k=k, seed=seed, inject_every=25
    )
    cached = TrafficSimulator(cached_pattern).run(cached_service).to_dict()
    cached_service.restore(base_snapshot)

    # Shard scaling on the MF benchmark cohort (the source-domain model the
    # cohort-speedup rows time), replayed under a shaped workload.  The
    # scaling cohort is floored at 64 users: smaller cohorts leave too few
    # users per shard for the wall-clock measurement to be stable.
    shard_cohort = min(max(64, len(source_cohort)), prep.cross.source.n_users)
    shard_scaling = run_shard_scaling(
        prep.mf,
        shard_counts=shard_counts,
        k=k,
        n_requests=n_requests,
        cohort_size=shard_cohort,
        workload=workload,
        seed=seed,
        engines=engines,
        shard_latency_s=shard_latency_s,
    )

    return {
        "cohort_size": len(cohort),
        "k": k,
        "n_requests": n_requests,
        "ncf_factors": ncf_factors,
        "speedup": speedups,
        "traffic_uncached": uncached,
        "traffic_cached": cached,
        "shard_scaling": shard_scaling,
    }
