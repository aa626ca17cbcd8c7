"""Serving benchmark — batched cohort scoring and traffic replay (tentpole).

Acceptance targets:

* ``top_k_batch`` on a 64-user cohort is element-wise identical to the
  per-user ``top_k`` loop and >= 5x faster on MF and NeuralCF;
* the traffic replay reports throughput and latency percentiles, with the
  cached platform scoring strictly fewer users than it serves;
* the *measured* wall clock of the thread-parallel execution engine at
  4 shards beats the serial fan-out by >= 1.5x on the same replay (real
  threads overlapping real per-shard waits);
* the process-pool engine — worker processes holding replicated shard
  state, kept in lockstep by epoch-stamped replication events — also
  beats the serial fan-out by >= 1.5x measured wall clock at 4 shards
  on the MF cohort, despite paying real serialization on every slice.

Results go to ``report.txt`` and ``BENCH_serving.json`` in the results
directory (``benchmarks/results/run/``, or the committed baseline in
``benchmarks/results/`` with ``--write-baseline``); CI writes the same
JSON via ``repro-bench serve --json``.
"""

from __future__ import annotations

from repro.experiments import format_table, run_serving_benchmark

COHORT = 64
SPEEDUP_FLOOR = 5.0
ENGINE_SPEEDUP_FLOOR = 1.5  # measured wall clock, threaded vs serial at 4 shards
PROCESS_SPEEDUP_FLOOR = 1.5  # measured wall clock, process vs serial at 4 shards


def test_serving_batch_and_traffic(prep_ml10m, benchmark, report, write_result):
    result = benchmark.pedantic(
        lambda: run_serving_benchmark(
            prep_ml10m, cohort_size=COHORT, n_requests=300, repeats=7, ncf_factors=48
        ),
        rounds=1,
        iterations=1,
    )

    speedups = result["speedup"]
    rows = [
        [name, r["per_user_ms"], r["batch_ms"], r["speedup"], bool(r["identical"])]
        for name, r in speedups.items()
    ]
    traffic_rows = [
        [
            label.removeprefix("traffic_"),
            t["requests_per_s"],
            t["users_per_s"],
            t["p50_ms"],
            t["p95_ms"],
            t.get("cache_hit_rate", float("nan")),
        ]
        for label, t in ((k, result[k]) for k in ("traffic_uncached", "traffic_cached"))
    ]
    report(
        format_table(
            ["model", "per-user ms", "batch ms", "speedup", "identical"],
            rows,
            title=f"Serving — {COHORT}-user cohort top-{result['k']} (ml10m_fx)",
        )
        + "\n\n"
        + format_table(
            ["variant", "req/s", "users/s", "p50 ms", "p95 ms", "hit rate"],
            traffic_rows,
            title="Serving — organic traffic replay (PinSage target)",
        )
        + "\n\n"
        + format_table(
            ["deployment", "serial wall s", "threaded wall s", "process wall s",
             "threaded speedup", "process speedup", "imbalance"],
            [
                [
                    f"{entry['n_shards']} shard(s)",
                    entry["measured"]["serial_wall_s"],
                    entry["measured"]["threaded_wall_s"],
                    entry["measured"]["process_wall_s"],
                    entry["measured"]["threaded_speedup_vs_serial"],
                    entry["measured"]["process_speedup_vs_serial"],
                    entry["load_balance"]["imbalance"],
                ]
                for entry in result["shard_scaling"]["per_shard_count"].values()
            ],
            title=(
                "Sharded serving (measured wall clock) — MF cohort, "
                f"workload={result['shard_scaling']['workload']}, shard RPC latency "
                f"{result['shard_scaling']['shard_latency_s'] * 1e3:g} ms"
            ),
        )
    )

    write_result("BENCH_serving.json", result)

    # Correctness first: a faster path that changes results is a bug.
    for name, r in speedups.items():
        assert r["identical"] == 1.0, f"{name}: batched top-k diverged from per-user"
    # The acceptance floor applies to MF and NeuralCF.
    assert speedups["mf"]["speedup"] >= SPEEDUP_FLOOR
    assert speedups["neural_cf"]["speedup"] >= SPEEDUP_FLOOR
    # The cache must actually absorb load under Zipf traffic.
    cached = result["traffic_cached"]
    assert cached["n_users_scored"] < cached["n_users_served"]
    assert cached["cache_hit_rate"] > 0.0
    # Sharding must pay for itself: measured wall clock of the threaded
    # fan-out beats the serial loop on the identical replay.
    four = result["shard_scaling"]["per_shard_count"]["4"]
    # What this gates: that the engine genuinely overlaps per-shard work
    # (the modelled RPC waits everywhere, plus GIL-releasing BLAS scoring
    # on multi-core hosts).  On a single-core runner the win is latency
    # hiding alone — compute cannot parallelise there, so a compute-only
    # floor would be unsatisfiable; the latency knob is what keeps this
    # assertion meaningful across host shapes (see shard_latency_s).
    assert four["measured"]["speedup_vs_serial"] >= ENGINE_SPEEDUP_FLOOR, four
    # The process engine pays real pickling on every slice message and
    # still must clear the same floor — the overhead budget that makes
    # "parallel compute past the GIL" a net win rather than a wash.
    assert four["measured"]["process_speedup_vs_serial"] >= PROCESS_SPEEDUP_FLOOR, four
