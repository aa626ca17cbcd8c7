"""Command-line interface for the experiment harness.

Usage (after ``pip install -e .``)::

    repro-bench table1  --config ml10m_fx
    repro-bench table2  --config small --episodes 8
    repro-bench fig3    --config ml10m_fx --items 4 --episodes 16
    repro-bench fig4    --config ml10m_fx --per-group 2
    repro-bench budget  --config ml10m_fx          # figures 5/6
    repro-bench quality --config ml20m_nf          # X1 gate
    repro-bench method  --config small --method TargetAttack40
    repro-bench serve   --config small --shards 7 --workload diurnal \
                        --engine all --json BENCH_serving.json
    repro-bench latency --config small --shards 4 --engines threaded async \
                        --json BENCH_latency.json
    repro-bench profile --config small --shards 4 --engine async
    repro-bench memory  --users 1000000 --items 100000 --shards 7 \
                        --json BENCH_memory.json
    repro-bench rollout --users 120 --rounds 6 --engine threaded \
                        --json BENCH_rollout.json
    repro-bench lint    src --format json          # == repro-lint src

or ``python -m repro.cli <subcommand> ...``.  Every run is deterministic
given ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.experiments import (
    METHOD_NAMES,
    ML10M_FX,
    ML20M_NF,
    SHARDS_BURST,
    SMALL,
    SMALL_STALE,
    format_query_stats,
    format_table,
    format_table2,
    prepare_experiment,
    run_budget_sweep,
    run_depth_sweep,
    run_hotpath_profile,
    run_latency_curve,
    run_memory_bench,
    run_method,
    run_rollout_bench,
    run_popularity_sweep,
    run_serving_benchmark,
    run_table2,
    scaled_copy,
)
from repro.serving import OVERLOAD_POLICIES
from repro.serving import WORKLOADS as _WORKLOAD_NAMES
from repro.utils import enable_console_logging

__all__ = ["main", "build_parser"]

_CONFIGS = {
    "ml10m_fx": ML10M_FX,
    "ml20m_nf": ML20M_NF,
    "small": SMALL,
    "small_stale": SMALL_STALE,
    "shards_burst": SHARDS_BURST,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="CopyAttack reproduction experiment runner",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--config", choices=sorted(_CONFIGS), default="small",
        help="dataset-pair configuration (default: small)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="dataset statistics (paper Table 1)")

    table2 = sub.add_parser("table2", help="full method comparison (paper Table 2)")
    table2.add_argument("--episodes", type=int, default=None, help="RL episodes per item")

    fig3 = sub.add_parser("fig3", help="tree-depth sweep (paper Figure 3)")
    fig3.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3, 4, 6])
    fig3.add_argument("--items", type=int, default=None, help="number of target items")
    fig3.add_argument("--episodes", type=int, default=16)

    fig4 = sub.add_parser("fig4", help="popularity-decile sweep (paper Figure 4)")
    fig4.add_argument("--groups", type=int, default=10)
    fig4.add_argument("--per-group", type=int, default=2)
    fig4.add_argument("--episodes", type=int, default=12)

    budget = sub.add_parser("budget", help="budget sweep (paper Figures 5/6)")
    budget.add_argument("--budgets", type=int, nargs="+", default=[5, 10, 20, 30])
    budget.add_argument("--items", type=int, default=None)
    budget.add_argument("--episodes", type=int, default=16)

    sub.add_parser("quality", help="target-model quality gate (X1)")

    method = sub.add_parser("method", help="run one named attack method")
    method.add_argument("--method", choices=METHOD_NAMES, required=True)
    method.add_argument("--budget", type=int, default=None)
    method.add_argument("--episodes", type=int, default=None)

    serve = sub.add_parser("serve", help="serving benchmark (batching, cache, traffic, shards)")
    serve.add_argument("--requests", type=int, default=200, help="traffic-replay requests")
    serve.add_argument("--cohort", type=int, default=64, help="cohort size for batch speedup")
    serve.add_argument("--k", type=int, default=20)
    serve.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    serve.add_argument("--shards", type=int, default=4,
                       help="largest shard count for the scaling sweep "
                            "(sweeps the subset of {1, 2, 4, N} up to N)")
    serve.add_argument("--workload", choices=sorted(_WORKLOAD_NAMES), default="diurnal",
                       help="workload model shaping the shard-scaling replay")
    serve.add_argument("--engine",
                       choices=("all", "both", "serial", "threaded", "process", "async"),
                       default="all",
                       help="execution engine(s) measured by the shard-scaling sweep: "
                            "'serial' (sequential fan-out), "
                            "'threaded' (one-worker-per-shard thread pool), 'process' "
                            "(one worker process per shard with replicated state — "
                            "parallel compute past the GIL), 'async' (event-loop "
                            "coroutine fan-out), 'both' (serial+threaded), "
                            "or 'all' (report every engine side by side)")
    serve.add_argument("--shard-latency-ms", type=float, default=2.0,
                       help="modelled per-slice RPC latency of a remote shard worker "
                            "(parallel engines overlap it; excluded from per-shard wall times)")
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="write the full result as JSON (e.g. BENCH_serving.json)")

    latency = sub.add_parser(
        "latency",
        help="open-loop latency-throughput curve per engine (async admission front)",
    )
    latency.add_argument("--requests", type=int, default=180, help="requests per point")
    latency.add_argument("--cohort", type=int, default=64, help="users per request")
    latency.add_argument("--k", type=int, default=20)
    latency.add_argument("--shards", type=int, default=4)
    latency.add_argument("--engines", nargs="+", choices=("serial", "threaded", "async"),
                         default=["threaded", "async"],
                         help="in-memory engines to sweep (curves share request plans)")
    latency.add_argument("--workloads", nargs="+", choices=sorted(_WORKLOAD_NAMES),
                         default=["steady", "flash"],
                         help="arrival shapes for the open-loop replay")
    latency.add_argument("--loads", type=float, nargs="+",
                         default=[8000, 16000, 32000, 48000, 64000],
                         help="offered loads to sweep, users/s")
    latency.add_argument("--queue", type=int, default=64,
                         help="bounded admission-queue capacity")
    latency.add_argument("--policy", choices=OVERLOAD_POLICIES, default="block",
                         help="overload policy when the queue is full")
    latency.add_argument("--timeout-s", type=float, default=2.0,
                         help="admission timeout for the block policy (0 = wait forever)")
    latency.add_argument("--concurrency", type=int, default=16,
                         help="max requests in service at once")
    latency.add_argument("--shard-latency-ms", type=float, default=2.0,
                         help="modelled per-slice RPC latency of a remote shard worker")
    latency.add_argument("--cache-capacity", type=int, default=4096,
                         help="per-shard top-k cache entries (0 disables caching)")
    latency.add_argument("--slo-p99-ms", type=float, default=50.0,
                         help="p99 queueing-latency SLO for max_load_within_slo")
    latency.add_argument("--json", default=None, metavar="PATH",
                         help="write the full result as JSON (e.g. BENCH_latency.json)")

    memory = sub.add_parser(
        "memory",
        help="per-shard RSS sweep: sliced replication vs full-model replicas",
    )
    memory.add_argument("--users", type=int, default=1_000_000,
                        help="user count at scale 1.0 of the sweep")
    memory.add_argument("--items", type=int, default=100_000,
                        help="catalog size (item factors live in shared memory)")
    memory.add_argument("--shards", type=int, default=7,
                        help="worker process count (each probes its own VmRSS)")
    memory.add_argument("--factors", type=int, default=16,
                        help="embedding width of the synthetic MF model")
    memory.add_argument("--scales", type=float, nargs="+", default=[0.25, 0.5, 1.0],
                        help="fractions of --users to sweep (consecutive pairs "
                             "should double for the sublinearity ratios)")
    memory.add_argument("--json", default=None, metavar="PATH",
                        help="write the full report as JSON (e.g. BENCH_memory.json)")

    rollout = sub.add_parser(
        "rollout",
        help="attack-survival under online learning: shilling inject, organic "
             "retrain rounds through canary/shadow rollouts, guard auto-rollback",
    )
    rollout.add_argument("--users", type=int, default=120,
                         help="genuine user population")
    rollout.add_argument("--items", type=int, default=60, help="catalog size")
    rollout.add_argument("--shards", type=int, default=3,
                         help="shard count (shard 0 hosts the canary)")
    rollout.add_argument("--fake-users", type=int, default=30,
                         help="shilling profiles injected before the retrain rounds")
    rollout.add_argument("--rounds", type=int, default=6,
                         help="organic retrain rounds (one rollout each)")
    rollout.add_argument("--clicks", type=int, default=60,
                         help="organic clicks folded in per round")
    rollout.add_argument("--k", type=int, default=10, help="top-k list length")
    rollout.add_argument("--engine", choices=("serial", "threaded", "process", "async"),
                         default="threaded",
                         help="execution engine the whole experiment runs on")
    rollout.add_argument("--replication", choices=("full", "sliced"), default="full",
                         help="replica state layout under the process engine")
    rollout.add_argument("--min-agreement", type=float, default=0.9,
                         help="shadow-agreement floor for the guard-demonstration leg")
    rollout.add_argument("--json", default=None, metavar="PATH",
                         help="write the full report as JSON (e.g. BENCH_rollout.json)")

    profile = sub.add_parser(
        "profile",
        help="serving hot-path profile (per-stage wall-clock timers + cProfile)",
    )
    profile.add_argument("--requests", type=int, default=200, help="replay requests")
    profile.add_argument("--cohort", type=int, default=64, help="users per request")
    profile.add_argument("--k", type=int, default=20)
    profile.add_argument("--shards", type=int, default=4)
    profile.add_argument("--engine", choices=("serial", "threaded", "async"),
                         default="serial",
                         help="in-memory engine to profile (stage timers cannot cross "
                              "the process boundary; under 'threaded' stage totals sum "
                              "across workers; 'async' replays through the admission "
                              "front so the queue-wait stage is populated)")
    profile.add_argument("--cache-capacity", type=int, default=4096,
                         help="per-shard top-k cache entries (0 disables caching)")
    profile.add_argument("--ttl", type=int, default=0,
                         help="cache staleness horizon in injections (0 = strict)")
    profile.add_argument("--inject-every", type=int, default=0,
                         help="interleave one injection every N requests (0 = query-only)")
    profile.add_argument("--top", type=int, default=12,
                         help="cProfile rows to report (by self time)")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write the full profile as JSON")

    # Dispatched before parsing in main() so every repro-lint flag passes
    # through untouched; registered here so --help lists the tooling.
    sub.add_parser(
        "lint",
        help="static concurrency/determinism analysis (delegates to repro-lint)",
        add_help=False,
    )

    return parser


def _metrics_row(label: str, outcome) -> list:
    return [
        label,
        outcome.metrics.get("hr@20", float("nan")),
        outcome.metrics.get("ndcg@20", float("nan")),
        outcome.mean_profile_length,
    ]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv[:1] == ["lint"]:
        # No experiment setup: the linter is pure stdlib and must stay
        # runnable before any dataset or model exists.
        from repro.analysis.cli import main as lint_main

        return lint_main(raw_argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        # Fail fast: these would otherwise only be caught after minutes of
        # data generation and model training.
        for name in ("requests", "cohort", "k", "repeats", "shards"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name} must be positive")
        if args.shard_latency_ms < 0:
            parser.error("--shard-latency-ms must be non-negative")
        if args.json is not None:
            parent = os.path.dirname(os.path.abspath(args.json)) or "."
            if not os.path.isdir(parent):
                parser.error(f"--json directory does not exist: {parent}")
    if args.command == "profile":
        for name in ("requests", "cohort", "k", "shards", "top"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name} must be positive")
        if args.cache_capacity < 0 or args.ttl < 0 or args.inject_every < 0:
            parser.error("--cache-capacity, --ttl, and --inject-every must be non-negative")
        if args.engine == "async" and args.inject_every:
            parser.error("--inject-every is not supported with --engine async")
        if args.json is not None:
            parent = os.path.dirname(os.path.abspath(args.json)) or "."
            if not os.path.isdir(parent):
                parser.error(f"--json directory does not exist: {parent}")
    if args.command == "memory":
        for name in ("users", "items", "shards", "factors"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name} must be positive")
        if any(scale <= 0 or scale > 1 for scale in args.scales):
            parser.error("--scales entries must be in (0, 1]")
        if args.json is not None:
            parent = os.path.dirname(os.path.abspath(args.json)) or "."
            if not os.path.isdir(parent):
                parser.error(f"--json directory does not exist: {parent}")
    if args.command == "rollout":
        for name in ("users", "items", "shards", "fake_users", "rounds", "clicks", "k"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name.replace('_', '-')} must be positive")
        if not 0.0 <= args.min_agreement <= 1.0:
            parser.error("--min-agreement must be in [0, 1]")
        if args.json is not None:
            parent = os.path.dirname(os.path.abspath(args.json)) or "."
            if not os.path.isdir(parent):
                parser.error(f"--json directory does not exist: {parent}")
    if args.command == "latency":
        for name in ("requests", "cohort", "k", "shards", "queue", "concurrency"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name} must be positive")
        if any(load <= 0 for load in args.loads):
            parser.error("--loads entries must be positive")
        if args.shard_latency_ms < 0 or args.timeout_s < 0:
            parser.error("--shard-latency-ms and --timeout-s must be non-negative")
        if args.cache_capacity < 0:
            parser.error("--cache-capacity must be non-negative")
        if args.slo_p99_ms <= 0:
            parser.error("--slo-p99-ms must be positive")
        if args.json is not None:
            parent = os.path.dirname(os.path.abspath(args.json)) or "."
            if not os.path.isdir(parent):
                parser.error(f"--json directory does not exist: {parent}")
    if not args.quiet:
        enable_console_logging()
    config = _CONFIGS[args.config]
    if args.seed is not None:
        config = scaled_copy(config, seed=args.seed)

    if args.command == "table1":
        # Statistics need only the generated data, not a trained model.
        from repro.data import generate_cross_domain

        cross = generate_cross_domain(config.synthetic, seed=config.seed)
        stats = cross.statistics()
        rows = [
            ["target", int(stats["target"]["n_users"]), int(stats["target"]["n_items"]),
             int(stats["target"]["n_interactions"])],
            ["source", int(stats["source"]["n_users"]),
             int(stats["source"]["n_overlapping_items"]),
             int(stats["source"]["n_interactions"])],
        ]
        print(format_table(
            ["domain", "users", "items/overlap", "interactions"], rows,
            title=f"Table 1 — {config.name}",
        ))
        return 0

    if args.command == "memory":
        # Purely synthetic (scale is the point); no trained model needed.
        result = run_memory_bench(
            n_users=args.users, n_items=args.items, n_shards=args.shards,
            n_factors=args.factors, user_scales=tuple(sorted(args.scales)),
            seed=config.seed if args.seed is None else args.seed,
        )
        rows = [
            [f"sliced x{entry['scale']:g}", entry["n_users"],
             entry["mean_rss_kb"] / 1024.0, entry["max_rss_kb"] / 1024.0,
             entry["install_payload_bytes_shard0"] / 1e6]
            for entry in result["sliced"]
        ]
        baseline = result["full_baseline"]
        if baseline is not None:
            rows.append(
                [f"full x{baseline['scale']:g}", baseline["n_users"],
                 baseline["mean_rss_kb"] / 1024.0, baseline["max_rss_kb"] / 1024.0,
                 baseline["install_payload_bytes_shard0"] / 1e6]
            )
        print(format_table(
            ["deployment", "users", "mean RSS MiB", "max RSS MiB", "install MB/shard"],
            rows,
            title=f"Per-shard memory — {args.shards} process shards, "
                  f"{args.items} items",
        ))
        print()
        for ratio in result["sublinearity"]["ratios"]:
            print(
                f"users x{ratio['user_growth']:.2f} "
                f"({ratio['from_users']} -> {ratio['to_users']}): "
                f"per-shard RSS x{ratio['rss_growth']:.2f} "
                f"({'sublinear' if ratio['sublinear'] else 'NOT sublinear'})"
            )
        comparison = result.get("baseline_comparison")
        if comparison is not None:
            print(
                f"sliced vs full replication at scale {comparison['scale']:g}: "
                f"{comparison['sliced_max_rss_kb'] / 1024.0:.0f} MiB vs "
                f"{comparison['full_max_rss_kb'] / 1024.0:.0f} MiB per shard "
                f"({comparison['rss_saving_factor']:.1f}x saving)"
            )
        payload = result["resync_payload"]
        print(
            f"resync payload at {payload['n_users']} users: "
            + ", ".join(
                f"{p['payload_bytes'] / 1e6:.2f} MB @ {p['n_items']} items"
                for p in payload["per_catalog"]
            )
            + f" (max ratio {payload['max_ratio']:.3f})"
        )
        print(
            "shared-memory segments after close: "
            + ("clean" if result["segments"]["clean"]
               else f"LEAKED {result['segments']['leaked_after_close']}")
        )
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0 if (
            result["sublinearity"]["sublinear"]
            and result["segments"]["clean"]
            and result["resync_payload"]["catalog_independent"]
        ) else 1

    if args.command == "rollout":
        # Synthetic end to end; no trained paper model needed.
        result = run_rollout_bench(
            n_users=args.users, n_items=args.items, n_shards=args.shards,
            n_fake_users=args.fake_users, n_rounds=args.rounds,
            clicks_per_round=args.clicks, k=args.k, engine=args.engine,
            replication=args.replication, min_agreement=args.min_agreement,
            seed=config.seed if args.seed is None else args.seed,
        )
        rows = [
            ["baseline", "-", result["baseline"]["target_hit_rate"],
             result["baseline"]["mean_target_rank"]],
            ["post-attack", "-", result["attack"]["target_hit_rate"],
             result["attack"]["mean_target_rank"]],
        ] + [
            [f"round {point['round']}", point["version"],
             point["target_hit_rate"], point["mean_target_rank"]]
            for point in result["survival"]
        ]
        print(format_table(
            ["phase", "version", f"target HR@{args.k}", "mean target rank"], rows,
            title=f"Attack survival — {args.engine} engine, "
                  f"{args.shards} shards, {args.fake_users} fake users",
        ))
        print()
        rollback = result["auto_rollback"]
        print(
            f"guard leg: staged v{rollback['staged_version']} "
            + (f"auto-rolled back ({rollback['reason']})" if rollback["fired"]
               else "was NOT rolled back")
            + f"; fleet serves v{rollback['active_version_after']}"
        )
        print(
            "gates: "
            + ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                        for name, ok in result["gates"].items() if name != "all_pass")
        )
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0 if result["gates"]["all_pass"] else 1

    prep = prepare_experiment(config)
    print(f"target model test HR@10 = {prep.trained.test_metrics['hr@10']:.4f}")

    if args.command == "quality":
        rows = [[k, v] for k, v in sorted(prep.trained.test_metrics.items())]
        print(format_table(["metric", "value"], rows, title=f"X1 — {config.name}"))
        return 0

    if args.command == "table2":
        if args.episodes is not None:
            prep.config = scaled_copy(prep.config, n_episodes=args.episodes)
        results = run_table2(prep)
        print(format_table2(results, config.name))
        return 0

    if args.command == "fig3":
        items = prep.target_items[: args.items] if args.items else prep.target_items
        rows = []
        for depth in args.depths:
            outcome = run_method(
                prep, "CopyAttack", target_items=items,
                tree_depth=depth, n_episodes=args.episodes,
            )
            rows.append(_metrics_row(f"d={depth}", outcome))
        print(format_table(
            ["depth", "HR@20", "NDCG@20", "avg items/profile"], rows,
            title=f"Figure 3 — {config.name}",
        ))
        return 0

    if args.command == "fig4":
        results = run_popularity_sweep(
            prep, n_groups=args.groups, items_per_group=args.per_group,
            n_episodes=args.episodes, seed=config.seed,
        )
        rows = [_metrics_row(f"decile {g}", out) for g, out in sorted(results.items())]
        print(format_table(
            ["popularity group", "HR@20", "NDCG@20", "avg items/profile"], rows,
            title=f"Figure 4 — {config.name}",
        ))
        return 0

    if args.command == "budget":
        items = prep.target_items[: args.items] if args.items else prep.target_items
        header = ["method"] + [f"Δ={b}" for b in args.budgets]
        rows = []
        for method in ("RandomAttack", "TargetAttack40", "TargetAttack70",
                       "TargetAttack100", "CopyAttack"):
            row: list = [method]
            for budget in args.budgets:
                outcome = run_method(
                    prep, method, target_items=items, budget=budget,
                    n_episodes=args.episodes if method == "CopyAttack" else None,
                )
                row.append(outcome.metrics["hr@20"])
            rows.append(row)
        print(format_table(header, rows, title=f"Figures 5/6 — HR@20, {config.name}"))
        return 0

    if args.command == "method":
        outcome = run_method(
            prep, args.method, budget=args.budget, n_episodes=args.episodes
        )
        rows = [[k, v] for k, v in sorted(outcome.metrics.items())]
        rows.append(["avg items/profile", outcome.mean_profile_length])
        rows.append(["wall time (s)", outcome.wall_time])
        print(format_table(["metric", "value"], rows, title=f"{args.method} — {config.name}"))
        print()
        print(format_query_stats(
            prep.blackbox.log.summary(), title=f"query-side cost — {args.method}"
        ))
        return 0

    if args.command == "serve":
        shard_counts = sorted(c for c in {1, 2, 4, args.shards} if c <= args.shards)
        if args.engine == "all":
            engines = ("serial", "threaded", "process", "async")
        elif args.engine == "both":
            engines = ("serial", "threaded")
        else:
            engines = (args.engine,)
        result = run_serving_benchmark(
            prep, cohort_size=args.cohort, k=args.k,
            n_requests=args.requests, repeats=args.repeats,
            shard_counts=shard_counts, workload=args.workload,
            engines=engines, shard_latency_s=args.shard_latency_ms / 1e3,
        )
        rows = [
            [name, r["per_user_ms"], r["batch_ms"], r["speedup"]]
            for name, r in result["speedup"].items()
        ]
        print(format_table(
            ["model", "per-user ms", "batch ms", "speedup"], rows,
            title=f"Serving — {args.cohort}-user cohort top-{args.k}, {config.name}",
        ))
        print()
        for label in ("traffic_uncached", "traffic_cached"):
            print(format_query_stats(result[label], title=label))
            print()
        scaling = result["shard_scaling"]
        measured_rows = [
            [f"{entry['n_shards']} shard(s)",
             entry["measured"].get("serial_wall_s", float("nan")),
             entry["measured"].get("threaded_wall_s", float("nan")),
             entry["measured"].get("process_wall_s", float("nan")),
             entry["measured"].get("threaded_speedup_vs_serial", float("nan")),
             entry["measured"].get("process_speedup_vs_serial", float("nan")),
             entry["load_balance"]["imbalance"]]
            for entry in scaling["per_shard_count"].values()
        ]
        print(format_table(
            ["deployment", "serial wall s", "threaded wall s", "process wall s",
             "threaded speedup", "process speedup", "imbalance"], measured_rows,
            title=f"Shard scaling (measured wall clock) — MF cohort, "
                  f"workload={scaling['workload']}, "
                  f"shard RPC latency {scaling['shard_latency_s'] * 1e3:g} ms",
        ))
        print()
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0

    if args.command == "latency":
        result = run_latency_curve(
            prep.mf,
            n_shards=args.shards,
            engines=tuple(args.engines),
            workloads=tuple(dict.fromkeys(args.workloads)),
            offered_loads=tuple(args.loads),
            n_requests=args.requests,
            cohort_size=args.cohort,
            k=args.k,
            shard_latency_s=args.shard_latency_ms / 1e3,
            cache_capacity=args.cache_capacity,
            max_queue=args.queue,
            policy=args.policy,
            admission_timeout_s=None if args.timeout_s == 0 else args.timeout_s,
            max_concurrency=args.concurrency,
            seed=config.seed,
            slo_p99_ms=args.slo_p99_ms,
        )
        for engine, entry in result["engines"].items():
            for workload, curve in entry["workloads"].items():
                rows = [
                    [point["offered_users_per_s"],
                     point["achieved_users_per_s"],
                     point["latency"]["p50_ms"],
                     point["latency"]["p95_ms"],
                     point["latency"]["p99_ms"],
                     point["n_shed"] + point["n_timed_out"]
                     + point["n_rate_limited"]]
                    for point in curve["points"]
                ]
                print(format_table(
                    ["offered users/s", "achieved users/s",
                     "p50 ms", "p95 ms", "p99 ms", "denied"], rows,
                    title=f"latency curve — {engine} engine, {workload} workload "
                          f"(knee ≈ {curve['knee_users_per_s']:.0f} users/s)",
                ))
                print()
            peak = entry["peak"]
            print(
                f"{engine} peak (all-at-once burst): "
                f"{peak['users_per_s']:.0f} users/s, "
                f"p99 arrival→completion {peak['latency']['p99_ms']:.1f} ms"
            )
            print()
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0

    if args.command == "profile":
        result = run_hotpath_profile(
            prep.mf,
            n_shards=args.shards,
            engine=args.engine,
            n_requests=args.requests,
            cohort_size=args.cohort,
            k=args.k,
            cache_capacity=args.cache_capacity,
            ttl_injections=args.ttl,
            inject_every=args.inject_every,
            seed=config.seed,
            top=args.top,
        )
        plain = result["uninstrumented"]
        print(
            f"hot path — {args.shards} shard(s), {args.engine} engine, "
            f"{args.cohort}-user cohorts, cache={args.cache_capacity}: "
            f"{plain['users_per_s']:.0f} users/s "
            f"({plain['requests_per_s']:.0f} req/s, uninstrumented)"
        )
        print()
        stage_rows = [
            [stage, entry["total_s"] * 1e3, int(entry["calls"]),
             entry.get("ns_per_user", 0.0), entry["share"]]
            for stage, entry in result["stages"]["stages"].items()
        ]
        print(format_table(
            ["stage", "total ms", "calls", "ns/user", "share"], stage_rows,
            title="per-stage wall clock (instrumented replay)",
        ))
        print()
        func_rows = [
            [row["function"][-72:], row["ncalls"],
             row["tottime_s"] * 1e3, row["cumtime_s"] * 1e3]
            for row in result["top_functions"]
        ]
        print(format_table(
            ["function", "ncalls", "tottime ms", "cumtime ms"], func_rows,
            title=f"cProfile top {args.top} by self time",
        ))
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
