"""Hot-path microbenchmarks — ns/user regression gates for the serving core.

Times the vectorized hot-path components in isolation (no datasets, no
model training, sub-second total), so every subsequent PR can gate "no
hot-path regression" without paying the full serving benchmark:

* **cache hit path** — ``TopKCache.lookup_batch`` over an all-resident
  batch (the steady state of a warm Zipf replay);
* **cache miss path** — all-miss ``lookup_batch`` + ``store_batch`` on
  a cold cache (the invalidation-storm worst case, model scoring
  excluded);
* **routing** — ``shards_for_users`` for the modulo-hash and
  consistent-hash routers at 1/4/7 shards;
* **merge** — ``group_by_shard`` + ``scatter_to_request_order`` (the
  coordinator's fan-out/fan-in bookkeeping) at 1/4/7 shards.

Each quantity is best-of-``REPEATS`` and asserted against a generous
regression ceiling (~6x the dev-host measurement, leaving headroom for
slower CI runners while still catching an accidental return to the
per-user Python loops, which were 10-40x over these ceilings).  The
measured values and ceilings are written to ``BENCH_hotpath.json`` in
the results directory (``benchmarks/results/run/``; the committed
baseline in ``benchmarks/results/`` changes only with
``--write-baseline``); CI runs this file as its hot-path smoke leg and
uploads the JSON as an artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import format_table
from repro.serving import TopKCache
from repro.serving.sharded import (
    ConsistentHashRouter,
    ShardRouter,
    group_by_shard,
    scatter_to_request_order,
)


N_USERS = 4096  # batch large enough that per-batch setup amortises out
K = 20
REPEATS = 7
SHARD_COUNTS = (1, 4, 7)

# Regression ceilings in ns/user (assertion bounds, not targets).
CEILING_CACHE_HIT_NS = 2_000.0  # dev host ~310
CEILING_CACHE_MISS_NS = 8_000.0  # dev host ~1300 (lookup + store, no scoring)
CEILING_ROUTE_HASH_NS = 400.0  # dev host ~55
CEILING_ROUTE_CONSISTENT_NS = 800.0  # dev host ~115
CEILING_MERGE_NS = 3_000.0  # dev host ~60 (1 shard) to ~450 (7 shards)


def _best_ns_per_user(fn, n_users: int = N_USERS, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, normalised per user."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return min(samples) / n_users


def _workload():
    """A fixed user batch plus one pre-built top-k row per user."""
    rng = np.random.default_rng(0)
    users = rng.integers(0, 100_000, size=N_USERS).astype(np.int64)
    rows = [np.arange(K, dtype=np.int64) + i for i in range(N_USERS)]
    return users, rows


def test_hotpath_microbench(report, write_result):
    users, rows = _workload()
    user_list = users.tolist()

    # Cache hit path: every key resident and fresh.
    warm = TopKCache(capacity=2 * N_USERS)
    warm.store_batch(user_list, K, True, rows)
    hit_ns = _best_ns_per_user(lambda: warm.lookup_batch(user_list, K, True))

    # Cache miss path: cold cache, one all-miss pass + one bulk store.
    def miss_and_store():
        cold = TopKCache(capacity=2 * N_USERS)
        cold.lookup_batch(user_list, K, True)
        cold.store_batch(user_list, K, True, rows)

    miss_ns = _best_ns_per_user(miss_and_store)

    routing: dict[str, dict[str, float]] = {"hash": {}, "consistent": {}}
    merge: dict[str, float] = {}
    for n_shards in SHARD_COUNTS:
        hash_router = ShardRouter(n_shards)
        ring_router = ConsistentHashRouter(n_shards)
        routing["hash"][str(n_shards)] = _best_ns_per_user(
            lambda: hash_router.shards_for_users(users)
        )
        routing["consistent"][str(n_shards)] = _best_ns_per_user(
            lambda: ring_router.shards_for_users(users)
        )

        # Merge: the coordinator's per-request bookkeeping around the
        # shard fan-out — group positions by shard, then scatter the
        # per-slice rows back into request order (slice results are
        # pre-built: scoring cost is the other benchmarks' business).
        _, slices = group_by_shard(hash_router, users)
        slice_rows = [
            [rows[p] for p in positions.tolist()] for _, positions, _ in slices
        ]

        def group_and_scatter():
            order, grouped = group_by_shard(hash_router, users)
            if len(grouped) > 1:
                scatter_to_request_order(order, slice_rows)

        merge[str(n_shards)] = _best_ns_per_user(group_and_scatter)

    result = {
        "n_users": N_USERS,
        "k": K,
        "repeats": REPEATS,
        "cache": {"hit_ns_per_user": hit_ns, "miss_store_ns_per_user": miss_ns},
        "routing_ns_per_user": routing,
        "merge_ns_per_user": merge,
        "ceilings_ns_per_user": {
            "cache_hit": CEILING_CACHE_HIT_NS,
            "cache_miss_store": CEILING_CACHE_MISS_NS,
            "route_hash": CEILING_ROUTE_HASH_NS,
            "route_consistent": CEILING_ROUTE_CONSISTENT_NS,
            "merge": CEILING_MERGE_NS,
        },
    }
    write_result("BENCH_hotpath.json", result)

    table_rows = [
        ["cache hit", hit_ns, CEILING_CACHE_HIT_NS],
        ["cache miss+store", miss_ns, CEILING_CACHE_MISS_NS],
    ]
    for n_shards in SHARD_COUNTS:
        table_rows.append(
            [f"route hash {n_shards}sh", routing["hash"][str(n_shards)], CEILING_ROUTE_HASH_NS]
        )
        table_rows.append(
            [f"route ring {n_shards}sh", routing["consistent"][str(n_shards)],
             CEILING_ROUTE_CONSISTENT_NS]
        )
        table_rows.append(
            [f"merge {n_shards}sh", merge[str(n_shards)], CEILING_MERGE_NS]
        )
    report(format_table(
        ["component", "ns/user", "ceiling"],
        table_rows,
        title=f"Hot-path microbench — {N_USERS}-user batches, best of {REPEATS}",
    ))

    assert hit_ns <= CEILING_CACHE_HIT_NS, result["cache"]
    assert miss_ns <= CEILING_CACHE_MISS_NS, result["cache"]
    for n_shards in SHARD_COUNTS:
        assert routing["hash"][str(n_shards)] <= CEILING_ROUTE_HASH_NS, routing
        assert routing["consistent"][str(n_shards)] <= CEILING_ROUTE_CONSISTENT_NS, routing
        assert merge[str(n_shards)] <= CEILING_MERGE_NS, merge
