"""Benchmark fixtures: session-scoped prepared experiments + reporting.

The two dataset pairs are prepared once per session (data generation +
target-model training take ~1-2 minutes each); every benchmark then runs
attacks against snapshots of the same platforms, mirroring how the paper
evaluates all methods against one fixed trained recommender.

Every file a benchmark writes goes through :func:`results_dir`: by
default the untracked ``benchmarks/results/run/``, so a test run leaves
the checkout unchanged; with ``--write-baseline`` the committed files in
``benchmarks/results/``.  ``report`` prints paper-style tables straight
to the terminal (bypassing pytest capture) and writes them to
``report.txt`` in that directory, emptied once at the start of each
session, so a run leaves exactly one copy of every table it printed.
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
both the tables and pytest-benchmark's timing summary.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import ML10M_FX, ML20M_NF, prepare_experiment

BASELINE_DIR = Path(__file__).parent / "results"
RUN_DIR = BASELINE_DIR / "run"


def results_dir(config: pytest.Config) -> Path:
    """Where this session's benchmark results go (created on demand)."""
    path = BASELINE_DIR if config.getoption("--write-baseline") else RUN_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def write_result(request):
    """``write_result(name, payload)``: dump ``payload`` as JSON into :func:`results_dir`."""

    def _write(name: str, payload: dict) -> None:
        path = results_dir(request.config) / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _write


@pytest.fixture(scope="session")
def prep_ml10m():
    """Prepared ML10M-Flixster analogue (depth-3 tree)."""
    return prepare_experiment(ML10M_FX)


@pytest.fixture(scope="session")
def prep_ml20m():
    """Prepared ML20M-Netflix analogue (depth-6 tree, 1400 source users)."""
    return prepare_experiment(ML20M_NF)


@pytest.fixture(scope="session")
def report_path(request) -> Path:
    """``report.txt`` in :func:`results_dir`, truncated on first use in a session."""
    path = results_dir(request.config) / "report.txt"
    path.write_text("")
    return path


@pytest.fixture
def report(capsys, report_path):
    """Print a result block to the real terminal and persist it."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text, flush=True)
        with open(report_path, "a") as handle:
            handle.write(text + "\n\n")

    return _report
