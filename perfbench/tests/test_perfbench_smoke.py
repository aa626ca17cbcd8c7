"""Toy-size runs of every workload through the benchmark's command line.

Checks the output contract (the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``), that a run
leaves every tracked file as it was, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402
from perfbench.workloads import END_TO_END_UNITS, WORKLOADS  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    return result


def _git_status() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=60, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if Path(top.stdout.strip()).resolve() == ROOT else None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_toy_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    saved = json.loads((ROOT / "perfbench" / "results" / f"{workload}-seed0-trace0.json").read_text())
    provenance = saved["provenance"]
    for key in ("commit", "dirty", "host", "cpu_count", "python", "numpy", "timestamp"):
        assert key in provenance
    assert provenance["seed"] == 0 and provenance["tracing"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_toy_run_prints_every_per_layer_metric(workload):
    proc = _run(workload, trace=1)
    result = _result(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == probes.metric_units()
    assert "(unattributed)" in proc.stdout and "tracing overhead" in proc.stdout
    spans = ROOT / "perfbench" / "results" / f"{workload}-seed0-trace1.spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "name", "start", "end", "parent", "rid"} <= set(first)


def test_serving_spans_carry_request_ids():
    _result(_run("serve_open_loop", trace=1))
    spans = [
        json.loads(line)
        for line in (ROOT / "perfbench" / "results" / "serve_open_loop-seed0-trace1.spans.jsonl")
        .read_text()
        .splitlines()
    ]
    roots = [s for s in spans if s["name"] == "serving.query_async"]
    assert roots and all(s["rid"] is not None for s in roots)
    by_id = {s["id"]: s for s in spans}
    scored = [s for s in spans if s["name"] == "recsys.top_k_batch" and s["rid"] is not None]
    assert scored and all(by_id[s["parent"]]["rid"] == s["rid"] for s in scored)


def test_a_run_leaves_tracked_files_unchanged():
    before = _git_status()
    if before is None:
        pytest.skip("needs a git checkout")
    _result(_run("train_pinsage", trace=0, seed=3))
    assert _git_status() == before
    ignored = subprocess.run(
        ["git", "-C", str(ROOT), "check-ignore", "-q", "perfbench/results/x.json"], timeout=60
    )
    assert ignored.returncode == 0, "perfbench/results/ must be git-ignored"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("train_pinsage", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
