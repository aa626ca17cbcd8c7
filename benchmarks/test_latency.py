"""Tail-latency benchmark — the async front's measured story (tentpole).

Replays identical open-loop request plans (steady and flash-crowd
arrival shapes, Zipf cohorts) through the bounded-admission async front
over a 4-shard MF deployment with a simulated 2 ms per-shard RPC, for
both the threaded and async engines, and records the arrival→completion
latency percentiles a client would feel at each offered load.

Acceptance floors (CI-gated):

* the async engine's measured burst peak clears the ~32k users/s
  serial-RPC ceiling at 4 shards (4 x 64 users / 8 ms sequential RPC);
* the async engine's knee (highest offered load still substantially
  cleared) is at least the threaded engine's on the steady workload;
* every curve point reports p50/p95/p99 and a conserved denial split.

The full sweep is written to ``BENCH_latency.json`` in the results
directory (``benchmarks/results/run/``, or the committed baseline in
``benchmarks/results/`` with ``--write-baseline``); CI runs a reduced
sweep as its latency-smoke leg and uploads the same JSON.
"""

from __future__ import annotations

from repro.experiments import format_table, run_latency_curve


N_SHARDS = 4
COHORT = 64
SHARD_LATENCY_S = 0.002
# One request at a time, shard waits overlapped *within* the request, is
# capped at cohort / rpc = 64 / 2 ms = 32k users/s; only overlapping RPC
# waits *across* requests (the async front's job) can clear it.
ASYNC_PEAK_FLOOR = COHORT / SHARD_LATENCY_S  # = 32_000 users/s


def test_latency_curve(prep_ml10m, benchmark, report, write_result):
    result = benchmark.pedantic(
        lambda: run_latency_curve(
            prep_ml10m.mf,
            n_shards=N_SHARDS,
            cohort_size=COHORT,
            shard_latency_s=SHARD_LATENCY_S,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for engine, engine_result in result["engines"].items():
        for workload, curve in engine_result["workloads"].items():
            for point in curve["points"]:
                latency = point["latency"]
                denied = (
                    point["n_shed"] + point["n_timed_out"] + point["n_rate_limited"]
                )
                rows.append(
                    [
                        engine,
                        workload,
                        point["offered_users_per_s"],
                        point["achieved_users_per_s"],
                        latency["p50_ms"],
                        latency["p95_ms"],
                        latency["p99_ms"],
                        denied,
                    ]
                )
                # Conservation: every offered request is accounted for.
                assert (
                    point["n_ok"] + denied + point["n_failed"] == point["n_offered"]
                )
                assert {"p50_ms", "p95_ms", "p99_ms"} <= set(latency)
    report(
        format_table(
            ["engine", "workload", "offered/s", "achieved/s", "p50", "p95", "p99", "denied"],
            rows,
            title="Latency curves (arrival->completion, 4 shards, 2ms RPC)",
        )
    )

    async_result = result["engines"]["async"]
    threaded_result = result["engines"]["threaded"]
    peak_rows = [
        [name, r["peak"]["users_per_s"], r["workloads"]["steady"]["knee_users_per_s"]]
        for name, r in result["engines"].items()
    ]
    report(
        format_table(
            ["engine", "peak users/s", "steady knee/s"],
            peak_rows,
            title="Engine peaks (all-at-once burst, unbounded queue)",
        )
    )

    # The headline floor: async clears the serial-RPC ceiling.
    async_peak = async_result["peak"]["users_per_s"]
    assert async_peak >= ASYNC_PEAK_FLOOR, (
        f"async peak {async_peak:.0f} users/s below the {ASYNC_PEAK_FLOOR:.0f} "
        "serial-RPC ceiling at 4 shards"
    )
    # The async front's knee should not be worse than the threaded one's.
    assert (
        async_result["workloads"]["steady"]["knee_users_per_s"]
        >= threaded_result["workloads"]["steady"]["knee_users_per_s"]
    )

    write_result("BENCH_latency.json", result)
