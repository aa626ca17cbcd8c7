"""Benchmark fixtures: session-scoped prepared experiments + reporting.

The two dataset pairs are prepared once per session (data generation +
target-model training take ~1-2 minutes each); every benchmark then runs
attacks against snapshots of the same platforms, mirroring how the paper
evaluates all methods against one fixed trained recommender.

``report`` prints paper-style tables straight to the terminal (bypassing
pytest capture) and appends them to ``benchmarks/results/report.txt``,
which is emptied once at the start of each session, so a run leaves
exactly one copy of every table it printed.  ``pytest benchmarks/
--benchmark-only | tee bench_output.txt`` captures both the tables and
pytest-benchmark's timing summary.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ML10M_FX, ML20M_NF, prepare_experiment

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def prep_ml10m():
    """Prepared ML10M-Flixster analogue (depth-3 tree)."""
    return prepare_experiment(ML10M_FX)


@pytest.fixture(scope="session")
def prep_ml20m():
    """Prepared ML20M-Netflix analogue (depth-6 tree, 1400 source users)."""
    return prepare_experiment(ML20M_NF)


@pytest.fixture(scope="session")
def report_path() -> Path:
    """``report.txt``, truncated on first use in a session."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "report.txt"
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
