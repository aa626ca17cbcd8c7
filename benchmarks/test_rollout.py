"""Attack-survival benchmark: online learning through versioned rollouts.

Runs :func:`repro.experiments.rollout_bench.run_rollout_bench` twice —
the survival curve on the threaded engine at reference scale, and a
process-engine parity check at reduced scale (real subprocess replicas,
real staged-model pickles crossing the boundary) — and writes the
combined report to ``BENCH_rollout.json`` in the results directory
(``benchmarks/results/run/``, or the committed baseline in
``benchmarks/results/`` with ``--write-baseline``).

Gated facts (CI fails if any regresses):

* the shilling burst lifts the target into real users' top-k;
* organic retraining *through the rollout protocol* erodes the attack
  (hit-rate falls or the target's mean rank decays toward baseline);
* every retrain round actually promotes a version (the canary window is
  exercised, not bypassed);
* the guard leg auto-rolls back a regressing candidate on shadow
  disagreement, no operator involved;
* no shared-memory segment survives either fleet.
"""

from __future__ import annotations

from repro.experiments import format_table, run_rollout_bench


def _assert_gates(result: dict, leg: str) -> None:
    failed = [name for name, ok in result["gates"].items() if not ok]
    assert not failed, f"{leg}: gates failed: {failed}"


def test_rollout_attack_survival(report, write_result):
    main = run_rollout_bench(engine="threaded")
    _assert_gates(main, "threaded")

    # Process-engine parity at reduced scale: same protocol, real
    # replicas.  The curve's shape is the threaded leg's business; this
    # leg pins that the gates hold across the process boundary too.
    process_check = run_rollout_bench(
        n_users=60, n_items=40, n_fake_users=15, n_rounds=2,
        clicks_per_round=30, engine="process", replication="sliced",
    )
    _assert_gates(process_check, "process/sliced")

    result = {"main": main, "process_check": process_check}
    write_result("BENCH_rollout.json", result)

    rows = [
        ["baseline", "-", main["baseline"]["target_hit_rate"],
         main["baseline"]["mean_target_rank"]],
        ["post-attack", "-", main["attack"]["target_hit_rate"],
         main["attack"]["mean_target_rank"]],
    ] + [
        [f"round {point['round']}", point["version"],
         point["target_hit_rate"], point["mean_target_rank"]]
        for point in main["survival"]
    ]
    rollback = main["auto_rollback"]
    report(
        format_table(
            ["phase", "version", "target HR@10", "mean target rank"],
            rows,
            title="Attack survival — organic retraining through canary rollouts "
                  f"({main['config']['n_fake_users']} fake users, "
                  f"{main['config']['engine']} engine)",
        )
        + f"\nguard leg: staged v{rollback['staged_version']} auto-rolled back: "
        + str(rollback["reason"])
    )

    # The survival story in two numbers: rank recovered a meaningful part
    # of the attack's displacement while the platform only ever deployed
    # through guarded rollouts.
    assert main["survival"][-1]["mean_target_rank"] > main["attack"]["mean_target_rank"]
    assert main["survival"][-1]["version"] == len(
        [p for p in main["survival"] if p["version"]]
    )
