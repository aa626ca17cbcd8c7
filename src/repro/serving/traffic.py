"""Organic background traffic replay against the recommendation service.

The ROADMAP's north star is a platform serving heavy traffic from many
users; attacks in the paper land *on top of* that organic load.  This
module generates a deterministic, Zipf-skewed stream of top-k requests
(popular users re-query often, which is what makes result caches earn
their keep), with request volume optionally sampled from a composable
:mod:`~repro.serving.workload` model (diurnal cycles, Poisson bursts,
flash crowds — the tick *pacing* itself is honoured by
:class:`BackgroundTraffic`, which interleaves organic ticks with attack
steps), optionally interleaved with background injections (organic
sign-ups that invalidate cache state), and reports the serving-side
numbers a platform team would watch: throughput, latency percentiles
(overall *and* per batch size — flat percentiles over mixed batch sizes
hid the cohort-size dependence), cache hit rate, model-scoring fan-out,
and per-shard load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError, RateLimitExceededError
from repro.serving.metrics import percentile_summary
from repro.serving.workload import Workload, make_workload, sample_arrivals
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.sharded import ShardedRecommendationService

__all__ = [
    "TrafficPattern",
    "TrafficReport",
    "TrafficSimulator",
    "BackgroundTraffic",
    "latency_percentiles",
    "latency_breakdown",
    "zipf_weights",
    "open_loop_plan",
]


def zipf_weights(
    n_users: int, exponent: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Zipf-like popularity weights (``rank^-exponent``, normalised).

    With ``rng``, which user occupies which popularity rank is itself a
    seeded draw; without it, user 0 is the most popular (rank order).
    """
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    if rng is None:
        return weights
    out = np.zeros(n_users)
    out[rng.permutation(n_users)] = weights
    return out


def latency_percentiles(wall_times_s: list[float] | np.ndarray) -> dict[str, float]:
    """p50/p95/p99 latencies in milliseconds from raw per-request seconds.

    Thin alias over :func:`repro.serving.metrics.percentile_summary` —
    one shared definition of the percentile arithmetic (numpy linear
    interpolation, zeros on empty input) for every latency consumer.
    """
    return percentile_summary(wall_times_s)


def latency_breakdown(
    wall_times_s: list[float] | np.ndarray,
    batch_sizes: list[int] | np.ndarray,
) -> dict[str, dict[str, float]]:
    """Per-batch-size p50/p95/p99 alongside the overall percentiles.

    A flat percentile over requests of mixed batch size conflates
    per-user scoring cost with cohort size — a replay dominated by
    1-user requests reports a misleadingly low p95 for its 8-user
    requests and vice versa, which made sharded and single runs
    incomparable.  Keys of the ``by_batch_size`` map are stringified
    sizes (JSON-friendly); each entry carries its own ``n_requests``.
    """
    times = np.asarray(wall_times_s, dtype=np.float64)
    sizes = np.asarray(batch_sizes, dtype=np.int64)
    if times.size != sizes.size:
        raise ConfigurationError(
            f"wall_times and batch_sizes must align ({times.size} vs {sizes.size})"
        )
    out: dict[str, dict[str, float]] = {"overall": latency_percentiles(times)}
    out["overall"]["n_requests"] = float(times.size)
    by_size: dict[str, dict[str, float]] = {}
    for size in np.unique(sizes):
        bucket = times[sizes == size]
        entry = latency_percentiles(bucket)
        entry["n_requests"] = float(bucket.size)
        by_size[str(int(size))] = entry
    out["by_batch_size"] = by_size
    return out


@dataclass(frozen=True)
class TrafficPattern:
    """Shape of one synthetic load run.

    Users are drawn from a Zipf-like ranked distribution
    (``rank^-zipf_exponent`` over a seeded permutation of the user base),
    batch sizes uniformly from ``[min_batch, max_batch]``.  Every
    ``inject_every``-th request is preceded by one organic sign-up with a
    profile of ``injection_profile_length`` random items.

    When ``workload`` names a :mod:`~repro.serving.workload` model
    (``"diurnal"``, ``"bursty"``, ``"flash"``, ``"diurnal_bursty"`` or a
    :class:`~repro.serving.workload.Workload` instance), the request
    *volume* is sampled from a tick grid — ``horizon_ticks`` ticks of
    ``Poisson(base_rate * multiplier[t])`` arrivals each — and
    ``n_requests`` is ignored in favour of the sampled total (the
    schedule is reported under ``TrafficReport.arrivals``).  Note the
    replay itself still issues requests back-to-back at full speed (it
    benchmarks throughput, not real-time pacing), so wall-clock rate
    limits do not feel the shape; time-structured contention is modelled
    by :class:`BackgroundTraffic`, whose tick loop interleaves the
    schedule with attack steps.
    """

    n_requests: int = 200
    k: int = 20
    min_batch: int = 1
    max_batch: int = 8
    zipf_exponent: float = 1.1
    inject_every: int = 0  # 0 = query-only load
    injection_profile_length: int = 8
    seed: int = 0
    workload: str | Workload | None = None
    base_rate: float = 4.0  # mean arrivals per tick when workload is set
    horizon_ticks: int = 96

    def __post_init__(self) -> None:
        if self.n_requests <= 0 or self.k <= 0:
            raise ConfigurationError("n_requests and k must be positive")
        if not 1 <= self.min_batch <= self.max_batch:
            raise ConfigurationError("need 1 <= min_batch <= max_batch")
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be non-negative")
        if self.inject_every < 0 or self.injection_profile_length <= 0:
            raise ConfigurationError("invalid injection settings")
        if self.base_rate <= 0 or self.horizon_ticks <= 0:
            raise ConfigurationError("base_rate and horizon_ticks must be positive")
        if self.workload is not None:
            make_workload(self.workload)  # fail fast on unknown names


@dataclass
class TrafficReport:
    """Serving-side outcome of one replay."""

    n_requests: int
    n_users_served: int
    n_users_scored: int
    n_injections: int
    n_rate_limited: int
    duration_s: float
    requests_per_s: float
    users_per_s: float
    latency: dict[str, float] = field(default_factory=dict)
    latency_by_batch: dict[str, dict[str, float]] = field(default_factory=dict)
    cache_hit_rate: float | None = None
    mean_batch_size: float = 0.0
    arrivals: dict[str, float] | None = None  # workload schedule summary
    shards: list[dict[str, float]] | None = None  # per-shard load during this run

    def to_dict(self) -> dict:
        out = {
            "n_requests": self.n_requests,
            "n_users_served": self.n_users_served,
            "n_users_scored": self.n_users_scored,
            "n_injections": self.n_injections,
            "n_rate_limited": self.n_rate_limited,
            "duration_s": self.duration_s,
            "requests_per_s": self.requests_per_s,
            "users_per_s": self.users_per_s,
            "mean_batch_size": self.mean_batch_size,
            **self.latency,
        }
        if self.latency_by_batch:
            out["latency_by_batch"] = self.latency_by_batch
        if self.cache_hit_rate is not None:
            out["cache_hit_rate"] = self.cache_hit_rate
        if self.arrivals is not None:
            out["arrivals"] = self.arrivals
        if self.shards is not None:
            out["shards"] = self.shards
        return out


class TrafficSimulator:
    """Deterministic request-stream generator for serving benchmarks."""

    def __init__(
        self,
        pattern: TrafficPattern | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.pattern = pattern if pattern is not None else TrafficPattern()
        self._clock = clock

    def _user_distribution(self, n_users: int, rng: np.random.Generator) -> np.ndarray:
        return zipf_weights(n_users, self.pattern.zipf_exponent, rng)

    def _request_plan(self, rng: np.random.Generator):
        """Number of requests to issue, plus the arrival schedule (if any)."""
        pattern = self.pattern
        if pattern.workload is None:
            return pattern.n_requests, None
        schedule = sample_arrivals(
            make_workload(pattern.workload),
            base_rate=pattern.base_rate,
            horizon=pattern.horizon_ticks,
            seed=rng,
        )
        return schedule.total, schedule

    def run(
        self, service: "ShardedRecommendationService", client: str = "organic"
    ) -> TrafficReport:
        """Replay the pattern against ``service`` and collect a report."""
        pattern = self.pattern
        rng = make_rng(pattern.seed)
        n_users = service.n_users
        weights = self._user_distribution(n_users, rng)
        n_requests, schedule = self._request_plan(rng)
        wall_times: list[float] = []
        ok_batch_sizes: list[int] = []
        n_served = 0
        n_scored_before = service.stats.n_users_scored
        n_injections = 0
        n_rate_limited = 0
        cache_before = service.cache_stats()
        hits_before = cache_before.hits if cache_before is not None else 0
        lookups_before = cache_before.lookups if cache_before is not None else 0
        shards_before = [shard.counters() for shard in service.shards]

        # The whole request stream is sampled *before* the clock starts:
        # weighted no-replacement draws cost O(n_users) each, and folding
        # that load-generator work into the timed region understated
        # serving throughput (the replay measures the service, not the
        # simulator).  Draw order matches the historical per-iteration
        # loop exactly, so the issued stream is unchanged.
        plan: list[tuple[list[int] | None, np.ndarray, int]] = []
        for request_idx in range(n_requests):
            inject_profile: list[int] | None = None
            if pattern.inject_every and (request_idx + 1) % pattern.inject_every == 0:
                profile = rng.choice(
                    service.n_items,
                    size=min(pattern.injection_profile_length, service.n_items),
                    replace=False,
                )
                inject_profile = [int(v) for v in profile]
            batch = min(int(rng.integers(pattern.min_batch, pattern.max_batch + 1)), n_users)
            users = rng.choice(n_users, size=batch, replace=False, p=weights)
            plan.append((inject_profile, users, batch))

        start = self._clock()
        for inject_profile, users, batch in plan:
            if inject_profile is not None:
                try:
                    service.inject(inject_profile, client=client)
                    n_injections += 1
                except RateLimitExceededError:
                    n_rate_limited += 1
            t0 = self._clock()
            try:
                service.query(users, pattern.k, client=client)
            except RateLimitExceededError:
                n_rate_limited += 1
                continue
            wall_times.append(self._clock() - t0)
            ok_batch_sizes.append(batch)
            n_served += batch
        duration = self._clock() - start

        cache_hit_rate: float | None = None
        cache_after = service.cache_stats()
        if cache_after is not None:
            lookups = cache_after.lookups - lookups_before
            hits = cache_after.hits - hits_before
            cache_hit_rate = hits / lookups if lookups else 0.0
        n_ok = len(wall_times)
        breakdown = latency_breakdown(wall_times, ok_batch_sizes)
        overall = {k: v for k, v in breakdown["overall"].items() if k != "n_requests"}
        return TrafficReport(
            n_requests=n_requests,
            n_users_served=n_served,
            n_users_scored=service.stats.n_users_scored - n_scored_before,
            n_injections=n_injections,
            n_rate_limited=n_rate_limited,
            duration_s=duration,
            requests_per_s=n_ok / duration if duration > 0 else 0.0,
            users_per_s=n_served / duration if duration > 0 else 0.0,
            latency=overall,
            latency_by_batch=breakdown["by_batch_size"],
            cache_hit_rate=cache_hit_rate,
            mean_batch_size=n_served / n_ok if n_ok else 0.0,
            arrivals=schedule.summary() if schedule is not None else None,
            # Every per-shard number is a delta for this run, not a
            # lifetime total.
            shards=[
                {"shard": float(shard.index)}
                | {key: after - before[key] for key, after in shard.counters().items()}
                for shard, before in zip(service.shards, shards_before)
            ],
        )


class BackgroundTraffic:
    """Organic load interleaved with an attack (contention scenario axis).

    Wraps a workload-shaped arrival schedule and replays a few organic
    queries per :meth:`tick` against the same platform the attacker uses.
    Under bursty load the organic stream warms/evicts the shared caches
    between the attacker's injections, so the attacker's *observed*
    feedback freshness depends on when their query round lands relative
    to a burst — exactly the contention effect the sharded deployment's
    staleness skew is about.  Queries go through their own ``client``
    identity and never inject, so ground-truth evaluation is unaffected.
    """

    def __init__(
        self,
        workload: str | Workload = "bursty",
        base_rate: float = 3.0,
        horizon_ticks: int = 512,
        k: int = 10,
        max_batch: int = 4,
        zipf_exponent: float = 1.1,
        seed: int = 0,
        client: str = "organic",
    ) -> None:
        if k <= 0 or max_batch <= 0:
            raise ConfigurationError("k and max_batch must be positive")
        self.schedule = sample_arrivals(
            make_workload(workload), base_rate=base_rate, horizon=horizon_ticks, seed=seed
        )
        self.k = k
        self.max_batch = max_batch
        self.zipf_exponent = zipf_exponent
        self.client = client
        self._rng = make_rng(seed + 1)
        self._tick = 0
        self._weights: np.ndarray | None = None
        self.n_requests_issued = 0
        self.n_rate_limited = 0

    def tick(self, service: "ShardedRecommendationService") -> int:
        """Issue this tick's organic arrivals; returns the request count.

        The schedule wraps around, so an attack longer than the horizon
        keeps seeing load.  User popularity weights are computed lazily
        against the service's *current* user base on first use.
        """
        n_users = service.n_users
        if self._weights is None or self._weights.size != n_users:
            # Rank assignment is a seeded draw, like the simulator's; it is
            # redrawn whenever the user base grows (an injection), so newly
            # injected users join the popularity lottery too.
            self._weights = zipf_weights(n_users, self.zipf_exponent, self._rng)
        count = int(self.schedule.counts[self._tick % self.schedule.horizon])
        self._tick += 1
        for _ in range(count):
            batch = min(int(self._rng.integers(1, self.max_batch + 1)), n_users)
            users = self._rng.choice(n_users, size=batch, replace=False, p=self._weights)
            try:
                service.query(users, self.k, client=self.client)
                self.n_requests_issued += 1
            except RateLimitExceededError:
                self.n_rate_limited += 1
        return count


def open_loop_plan(
    n_users: int,
    offered_users_per_s: float,
    n_requests: int,
    cohort_size: int = 64,
    k: int = 20,
    workload: str | Workload = "steady",
    zipf_exponent: float = 1.1,
    seed: int = 0,
    client: str = "organic",
    exclude_seen: bool = True,
) -> list:
    """Timestamped request plan for **open-loop** replay at a target rate.

    Closed-loop replay (:class:`TrafficSimulator`) issues the next
    request only when the previous one returns, so offered load adapts
    to service speed and tail latency under overload is invisible.  This
    plan instead fixes arrival times up front: a workload-shaped
    schedule (:func:`sample_arrivals`) is mapped onto wall time with
    ``tick_s = base_rate * cohort_size / offered_users_per_s``, so the
    *mean* offered rate is ``offered_users_per_s`` users/s while the
    workload shape (flash crowds, bursts) modulates the instantaneous
    rate around it.  Cohorts are Zipf-skewed no-replacement draws, one
    per arrival, sampled before the clock starts.

    Returns a list of :class:`~repro.serving.async_front.FrontRequest`
    sorted by arrival time, ready for
    :meth:`~repro.serving.async_front.AsyncServingFront.replay`.
    """
    from repro.serving.async_front import FrontRequest

    if offered_users_per_s <= 0:
        raise ConfigurationError("offered_users_per_s must be positive")
    if n_requests <= 0 or cohort_size <= 0:
        raise ConfigurationError("n_requests and cohort_size must be positive")
    base_rate = 3.0  # mean arrivals per tick; keeps ticks fine vs the horizon
    rng = make_rng(seed)
    weights = zipf_weights(n_users, zipf_exponent, rng)
    model = make_workload(workload)
    horizon = max(1, int(np.ceil(n_requests / base_rate)))
    schedule = sample_arrivals(model, base_rate=base_rate, horizon=horizon, seed=rng)
    while schedule.total < n_requests:
        horizon *= 2
        schedule = sample_arrivals(model, base_rate=base_rate, horizon=horizon, seed=rng)
    tick_s = base_rate * cohort_size / offered_users_per_s
    times = schedule.arrival_times(tick_s, rng)[:n_requests]
    cohort = min(cohort_size, n_users)
    return [
        FrontRequest(
            at_s=float(at_s),
            users=rng.choice(n_users, size=cohort, replace=False, p=weights),
            k=k,
            client=client,
            exclude_seen=exclude_seen,
        )
        for at_s in times
    ]
