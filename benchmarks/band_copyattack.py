"""Seed band of the CopyAttack-family paper results (HR@20 / NDCG@20).

Records, for prepare seeds 0-4, every Table 2 / Figure 3-5 row
whose value depends on the CopyAttack agent's arithmetic: the
PolicyNetwork, CopyAttack-Masking, CopyAttack-Length and CopyAttack rows
of Table 2 on both dataset pairs, and the CopyAttack rows of Figures 3-5
with the same targets, depths, budgets and episode counts as the
benchmarks in this directory.  A change that is not bitwise exact in the
agent records the band first and must then reproduce it.

Usage, from the root of a checkout::

    PYTHONPATH=src python benchmarks/band_copyattack.py --jobs 2
    PYTHONPATH=src python benchmarks/band_copyattack.py --jobs 2 --check

The first writes ``benchmarks/results/BAND_copyattack.json``; ``--check``
recomputes every value and exits non-zero unless each equals the
recorded one.  Pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import socket
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BAND_PATH = Path(__file__).resolve().parent / "results" / "BAND_copyattack.json"
METRICS = ("hr@20", "ndcg@20")
AGENT_METHODS = ("PolicyNetwork", "CopyAttack-Masking", "CopyAttack-Length", "CopyAttack")
FIG3_DEPTHS = (1, 2, 3, 4, 6)
FIG5_BUDGETS = (5, 10, 20, 30)
SEEDS = [0, 1, 2, 3, 4]


def _pick(outcome) -> dict[str, float]:
    return {key: float(outcome.metrics[key]) for key in METRICS}


def _rows_for_seed(seed: int) -> dict[str, dict[str, float] | None]:
    """Every banded row for one prepare seed (``None``: method skipped)."""
    from repro.experiments import ML10M_FX, ML20M_NF, prepare_experiment, run_method
    from repro.experiments.fig4_popularity import run_popularity_sweep
    from repro.experiments.table2 import run_table2

    rows: dict[str, dict[str, float] | None] = {}
    for config in (ML10M_FX, ML20M_NF):
        prep = prepare_experiment(config, seed=seed)
        table = run_table2(prep, methods=AGENT_METHODS)
        for method, outcome in table.items():
            rows[f"table2/{config.name}/{method}"] = None if outcome is None else _pick(outcome)
        if config is not ML10M_FX:
            continue
        items = prep.target_items[:4]
        for depth in FIG3_DEPTHS:
            outcome = run_method(
                prep, "CopyAttack", target_items=items, tree_depth=depth, n_episodes=16
            )
            rows[f"fig3/{config.name}/d={depth}"] = _pick(outcome)
        sweep = run_popularity_sweep(
            prep, n_groups=10, items_per_group=2, n_episodes=12, seed=5
        )
        for group, outcome in sorted(sweep.items()):
            rows[f"fig4/{config.name}/decile{group}"] = _pick(outcome)
        for budget in FIG5_BUDGETS:
            outcome = run_method(
                prep, "CopyAttack", target_items=items, budget=budget, n_episodes=16
            )
            rows[f"fig5/{config.name}/budget={budget}"] = _pick(outcome)
    return rows


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _meta(seeds: list[int]) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seeds": seeds,
    }


def collect(seeds: list[int], jobs: int) -> dict[str, dict]:
    """``{row: {metric: [value per seed] or None}}``."""
    if jobs > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            per_seed = list(pool.map(_rows_for_seed, seeds))
    else:
        per_seed = [_rows_for_seed(seed) for seed in seeds]
    rows: dict[str, dict] = {}
    for name in per_seed[0]:
        values = [result[name] for result in per_seed]
        if any(v is None for v in values):
            rows[name] = {metric: None for metric in METRICS}
            continue
        rows[name] = {metric: [v[metric] for v in values] for metric in METRICS}
    return rows


def compare(recorded: dict[str, dict], fresh: dict[str, dict]) -> list[str]:
    """Every (row, metric) whose fresh per-seed values differ from the record."""
    mismatches = []
    for name in sorted(set(recorded) | set(fresh)):
        for metric in METRICS:
            old = recorded.get(name, {}).get(metric, "missing")
            new = fresh.get(name, {}).get(metric, "missing")
            if old != new:
                mismatches.append(f"{name} {metric}: recorded {old} now {new}")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="seeds run in parallel processes")
    parser.add_argument(
        "--check", action="store_true", help="recompute and compare with the record; write nothing"
    )
    args = parser.parse_args(argv)
    rows = collect(SEEDS, max(1, args.jobs))
    if args.check:
        mismatches = compare(json.loads(BAND_PATH.read_text())["rows"], rows)
        for line in mismatches:
            print(line)
        print(f"{len(rows)} rows x {len(METRICS)} metrics x {len(SEEDS)} seeds: "
              f"{'all equal to the record' if not mismatches else f'{len(mismatches)} differ'}")
        return 1 if mismatches else 0
    result = {"meta": _meta(SEEDS), "metrics": list(METRICS), "rows": rows}
    BAND_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {BAND_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
