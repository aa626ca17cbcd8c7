"""Run one benchmark workload; print its metrics and check its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_pinsage --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs one fixed unit of the workload plain and once with
spans, prints the per-layer table (self time per span, the unattributed
remainder and the tracing overhead) and every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, goes to ``perfbench/results/`` (untracked).  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SPEC = Path(__file__).resolve().parent / "spec.json"


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=20,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(workload: str, seed: int, trace: bool, scale: str) -> dict:
    """Where a result came from: code, host, toolchain, inputs."""
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "tracing": trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_plain(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off."""
    from perfbench.workloads import END_TO_END_UNITS, SETUP_REPEATS, timed_setup

    setup_s, setup_raw_s, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            _teardown(workload, state)
        state, scaled, raw = timed_setup(workload, seed)
        setup_s.append(scaled)
        setup_raw_s.append(raw)
    try:
        measured = workload.measure(state, seconds)
    finally:
        _teardown(workload, state)
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": peak_rss_mib(),
        **measured.metrics,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record = {
        "checks": measured.checks,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "details": {"setup_s_each": setup_s, "setup_s_each_as_measured": setup_raw_s, **measured.details},
    }
    return metrics, record


def run_traced(workload, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics: traced setup, then one unit plain and one traced.

    Span metrics come from the traced unit; figures a workload reads off
    its own records (the serving tickets) come from the plain unit, so
    the tracing overhead does not inflate them.
    """
    from perfbench import probes
    from perfbench.tracing import Tracer, covered, summarize

    tracer = Tracer()
    probes.install(tracer)
    try:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_wall = (t0, time.perf_counter())
    finally:
        tracer.close()
    try:
        plain = workload.unit(state)
        t0 = time.perf_counter()
        traced = workload.unit(state, tracer)
        unit_wall = (t0, time.perf_counter())
    finally:
        _teardown(workload, state)
    spans = tracer.spans
    summary = summarize(spans)
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    wall = sum(b - a for a, b in (setup_wall, unit_wall))
    attributed = sum(covered(roots, a, b) for a, b in (setup_wall, unit_wall))
    units = probes.metric_units()
    values = {name: 0.0 for name in units}
    values.update(probes.layer_metrics(summary))
    values.update(plain.records)
    values["trace.unattributed_s"] = wall - attributed
    values["trace.overhead_ratio"] = traced.cost / plain.cost - 1.0
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    record = {
        "checks": [],
        "attempted": 2,
        "failed": 0,
        "details": {
            "traced_wall_s": wall,
            "unit_cost_plain": plain.cost,
            "unit_cost_traced": traced.cost,
            "spans": len(spans),
            "table": summary,
        },
        "spans": spans,
    }
    return metrics, record


def _teardown(workload, state) -> None:
    teardown = getattr(workload, "teardown", None)
    if teardown is not None:
        teardown(state)


def print_table(name: str, metrics: dict, record: dict, trace: bool, work_unit: str) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'}); work unit: {work_unit}")
    if trace:
        details = record["details"]
        wall = details["traced_wall_s"]
        print(f"{'span':34s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'share':>7s}")
        rows = sorted(details["table"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, row in rows:
            print(
                f"{span:34s} {row['calls']:8d} {row['total_s']:9.4f} "
                f"{row['self_s']:9.4f} {row['self_s'] / wall:7.1%}"
            )
        rest = metrics["trace.unattributed_s"]["value"]
        print(f"{'(unattributed)':34s} {'':8s} {'':9s} {rest:9.4f} {rest / wall:7.1%}")
        print(f"traced wall {wall:.4f} s; tracing overhead {metrics['trace.overhead_ratio']['value']:+.1%}")
    for key, value in record["details"].items():
        if key not in ("table", "phases"):
            print(f"  {key}: {value}")
    for phase, info in record["details"].get("phases", {}).items():
        print(f"  phase {phase}: {json.dumps(info)}")
    for check in record["checks"]:
        print(f"  check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def write_result(name: str, seed: int, trace: bool, out: dict, spans) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True, default=str) + "\n")
    if spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # One BLAS thread: the workloads are measured as one process with at
    # most the async front's and engine's threads.  Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import SCALES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload](SCALES[args.scale], spec["seed_bands"][args.scale][args.workload])
    trace = bool(args.trace)
    if trace:
        metrics, record = run_traced(workload, args.seed)
    else:
        metrics, record = run_plain(workload, args.seed, args.seconds)
    values_ok = all(
        math.isfinite(entry["value"]) and (trace or entry["value"] > 0)
        for entry in metrics.values()
    )
    correct = values_ok and all(check.ok for check in record["checks"])
    print_table(args.workload, metrics, record, trace, spec["workloads"][args.workload]["work_unit"])
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    full = dict(result)
    full["provenance"] = provenance(args.workload, args.seed, trace, args.scale)
    full["checks"] = [vars(check) for check in record["checks"]]
    full["details"] = record["details"]
    path = write_result(args.workload, args.seed, trace, full, record.get("spans"))
    print(f"  result written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
