"""CLI: argument parsing and end-to-end subcommand runs at small scale."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--config", "ml100k", "table1"])

    def test_method_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["method", "--method", "QuantumAttack"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.config == "small"
        assert args.seed is None

    def test_budget_list_parsing(self):
        args = build_parser().parse_args(["budget", "--budgets", "5", "10"])
        assert args.budgets == [5, 10]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests == 200
        assert args.cohort == 64
        assert args.json is None
        assert args.shards == 4
        assert args.workload == "diurnal"

    def test_serve_shards_and_workload_parse(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "8", "--workload", "diurnal_bursty"]
        )
        assert args.shards == 8
        assert args.workload == "diurnal_bursty"

    def test_serve_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workload", "weekly"])

    def test_stale_config_available(self):
        args = build_parser().parse_args(["--config", "small_stale", "table1"])
        assert args.config == "small_stale"

    def test_shards_burst_config_available(self):
        args = build_parser().parse_args(["--config", "shards_burst", "table1"])
        assert args.config == "shards_burst"


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["--config", "small", "--quiet", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "target" in out and "source" in out

    def test_method_runs(self, capsys):
        code = main([
            "--config", "small", "--quiet",
            "method", "--method", "TargetAttack40", "--budget", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TargetAttack40" in out
        assert "hr@20" in out

    def test_quality_runs(self, capsys):
        assert main(["--config", "small", "--quiet", "quality"]) == 0
        assert "X1" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        code = main([
            "--config", "small", "--seed", "123", "--quiet",
            "method", "--method", "RandomAttack", "--budget", "3",
        ])
        assert code == 0

    def test_method_reports_query_side_cost(self, capsys):
        code = main([
            "--config", "small", "--quiet",
            "method", "--method", "RandomAttack", "--budget", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "query-side cost" in out
        assert "mean_batch_size" in out

    def test_serve_runs_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        code = main([
            "--config", "small", "--quiet",
            "serve", "--requests", "30", "--cohort", "16", "--repeats", "2",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving" in out and "speedup" in out
        result = json.loads(path.read_text())
        assert set(result["speedup"]) == {"mf", "neural_cf", "pinsage"}
        for stats in result["speedup"].values():
            assert stats["identical"] == 1.0
            assert stats["speedup"] > 0
        assert result["traffic_uncached"]["n_requests"] == 30
        assert "p95_ms" in result["traffic_cached"]
        assert "latency_by_batch" in result["traffic_cached"]
        scaling = result["shard_scaling"]["per_shard_count"]
        assert set(scaling) == {"1", "2", "4"}
        assert scaling["1"]["measured"]["serial_scale_vs_1"] == 1.0
        assert all(entry["measured"]["serial_users_per_s"] > 0 for entry in scaling.values())


class TestProfileSubcommand:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.requests == 200
        assert args.cohort == 64
        assert args.k == 20
        assert args.shards == 4
        assert args.engine == "serial"
        assert args.top == 12

    def test_profile_rejects_process_engine(self):
        # The profiler attaches in-process stage timers; a process-pool
        # engine would silently profile only the coordinator.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--engine", "process"])

    def test_profile_rejects_nonpositive_requests(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "profile", "--requests", "0"])

    def test_profile_runs_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "PROFILE_hotpath.json"
        code = main([
            "--config", "small", "--quiet",
            "profile", "--requests", "20", "--cohort", "16", "--shards", "2",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "users/s" in out
        assert "routing" in out and "scoring" in out
        result = json.loads(path.read_text())
        assert result["n_shards"] == 2
        assert result["uninstrumented"]["users_per_s"] > 0
        stages = result["stages"]["stages"]
        assert set(stages) >= {"admission", "routing", "cache", "scoring", "merge"}
        assert result["top_functions"], "cProfile rows should not be empty"
        total_share = sum(entry["share"] for entry in stages.values())
        assert total_share == pytest.approx(1.0, abs=1e-6)


class TestLatencySubcommand:
    def test_latency_defaults(self):
        args = build_parser().parse_args(["latency"])
        assert args.command == "latency"
        assert args.requests == 180
        assert args.cohort == 64
        assert args.shards == 4
        assert args.engines == ["threaded", "async"]
        assert args.workloads == ["steady", "flash"]
        assert args.loads == [8000.0, 16000.0, 32000.0, 48000.0, 64000.0]
        assert args.queue == 64
        assert args.policy == "block"
        assert args.timeout_s == 2.0

    def test_latency_rejects_process_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["latency", "--engines", "process"])

    def test_latency_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["latency", "--policy", "drop_table"])

    def test_latency_rejects_nonpositive_requests(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "latency", "--requests", "0"])

    def test_profile_accepts_async_engine(self):
        args = build_parser().parse_args(["profile", "--engine", "async"])
        assert args.engine == "async"

    def test_profile_rejects_inject_with_async(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "--config", "small", "profile",
                "--engine", "async", "--inject-every", "5",
            ])

    def test_serve_accepts_async_engine(self):
        args = build_parser().parse_args(["serve", "--engine", "async"])
        assert args.engine == "async"

    def test_latency_runs_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "BENCH_latency.json"
        code = main([
            "--config", "small", "--quiet",
            "latency", "--requests", "24", "--cohort", "8", "--shards", "2",
            "--engines", "async", "--workloads", "steady",
            "--loads", "4000", "--shard-latency-ms", "0.5",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99" in out and "async" in out
        result = json.loads(path.read_text())
        assert result["n_shards"] == 2
        curve = result["engines"]["async"]["workloads"]["steady"]
        assert len(curve["points"]) == 1
        assert curve["knee_users_per_s"] == 4000.0
        point = curve["points"][0]
        assert point["offered_users_per_s"] == 4000.0
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(point["latency"])
        assert result["engines"]["async"]["peak"]["users_per_s"] > 0


class TestMemorySubcommand:
    def test_memory_defaults(self):
        args = build_parser().parse_args(["memory"])
        assert args.command == "memory"
        assert args.users == 1_000_000
        assert args.items == 100_000
        assert args.shards == 7
        assert args.factors == 16
        assert args.scales == [0.25, 0.5, 1.0]
        assert args.json is None

    def test_memory_rejects_nonpositive_users(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "memory", "--users", "0"])

    def test_memory_rejects_out_of_range_scales(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "memory", "--scales", "0.5", "1.5"])
        with pytest.raises(SystemExit):
            main(["--config", "small", "memory", "--scales", "0"])

    def test_memory_runs_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "BENCH_memory.json"
        code = main([
            "--quiet",
            "memory", "--users", "400", "--items", "120", "--shards", "2",
            "--scales", "0.5", "1.0", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max RSS MiB" in out
        assert "sublinear" in out
        assert "segments after close: clean" in out
        result = json.loads(path.read_text())
        assert result["config"]["n_shards"] == 2
        assert [entry["scale"] for entry in result["sliced"]] == [0.5, 1.0]
        assert result["full_baseline"]["replication"] == "full"
        assert result["sublinearity"]["sublinear"]
        assert result["resync_payload"]["catalog_independent"]
        assert result["segments"]["clean"]
        # The sliced install payload ships one shard's user rows, not the
        # whole model: it must be well under the full-replication pickle.
        sliced_payload = result["sliced"][-1]["install_payload_bytes_shard0"]
        full_payload = result["full_baseline"]["install_payload_bytes_shard0"]
        assert sliced_payload < full_payload


class TestRolloutSubcommand:
    def test_rollout_defaults(self):
        args = build_parser().parse_args(["rollout"])
        assert args.command == "rollout"
        assert args.users == 120
        assert args.items == 60
        assert args.shards == 3
        assert args.fake_users == 30
        assert args.rounds == 6
        assert args.clicks == 60
        assert args.k == 10
        assert args.engine == "threaded"
        assert args.replication == "full"
        assert args.min_agreement == 0.9
        assert args.json is None

    def test_rollout_rejects_nonpositive_counts(self, capsys):
        for flag in ("--users", "--rounds", "--fake-users", "--clicks"):
            with pytest.raises(SystemExit):
                main(["--config", "small", "rollout", flag, "0"])

    def test_rollout_rejects_out_of_range_agreement(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "rollout", "--min-agreement", "1.5"])
        with pytest.raises(SystemExit):
            main(["--config", "small", "rollout", "--min-agreement", "-0.1"])

    def test_rollout_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["--config", "small", "rollout", "--engine", "quantum"])

    def test_rollout_runs_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "BENCH_rollout.json"
        code = main([
            "--quiet",
            "rollout", "--users", "60", "--items", "40", "--shards", "2",
            "--fake-users", "15", "--rounds", "2", "--clicks", "30",
            "--engine", "serial", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Attack survival" in out
        assert "auto-rolled back" in out
        assert "auto_rollback_fired=ok" in out
        result = json.loads(path.read_text())
        assert result["config"]["engine"] == "serial"
        assert result["baseline"]["target_hit_rate"] <= result["attack"]["target_hit_rate"]
        assert result["attack"]["hit_rate_lift"] > 0
        assert len(result["survival"]) == 2
        assert result["survival"][-1]["version"] >= 1
        assert result["auto_rollback"]["fired"] is True
        assert "agreement regression" in result["auto_rollback"]["reason"]
        assert result["leaked_segments"] == []
        assert result["gates"]["all_pass"] is True
