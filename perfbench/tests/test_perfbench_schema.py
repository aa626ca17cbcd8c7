"""BENCHMARK.json and perfbench/spec.json: names, units, bounds, layer map."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402
from perfbench.workloads import END_TO_END_UNITS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
pytestmark = pytest.mark.skipif(
    not BENCHMARK_PATH.is_file(), reason="BENCHMARK.json sits at the repository root"
)


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads(BENCHMARK_PATH.read_text())


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "perfbench" / "spec.json").read_text())


def test_top_level_keys_and_size(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK_PATH.stat().st_size <= 64 * 1024
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_command_and_paths(bench):
    command = bench["command"]
    assert 1 <= len(command) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    for arg in command[1:]:
        if "/" in arg:
            assert any(arg == p or arg.startswith(p.rstrip("/") + "/") for p in bench["paths"])
            assert (ROOT / arg).is_file()


def test_metric_names_and_units_follow_the_grammar(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_workloads_match_the_runner(bench):
    assert 2 <= len(bench["workloads"]) <= 8
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_and_bounds(bench):
    e2e = bench["end_to_end"]
    assert 1 <= len(e2e) <= 16
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert {m["name"]: m["unit"] for m in e2e} == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_metrics_match_the_probes(bench):
    per_layer = bench["per_layer"]
    assert 1 <= len(per_layer) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in per_layer)
    assert {m["name"]: m["unit"] for m in per_layer} == probes.metric_units()


def test_layer_map_covers_every_per_layer_metric(bench, spec):
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer_map = spec["layer_map"]
    assert set(layer_map) == {m["name"] for m in bench["per_layer"]}
    for metric, entry in layer_map.items():
        assert set(entry) == {"moves", "unchanged_on"}, metric
        for target in entry["moves"]:
            name, _, workload = target.partition("@")
            assert name in e2e and workload in workloads, (metric, target)
        assert set(entry["unchanged_on"]) <= workloads, metric


def test_spec_records_why_and_seed_bands_for_every_workload(bench, spec):
    names = [w["name"] for w in bench["workloads"]]
    assert list(spec["workloads"]) == names
    assert all(spec["workloads"][name]["why"] for name in names)
    for scale in ("full", "toy"):
        assert set(spec["seed_bands"][scale]) == set(names)
        for bands in spec["seed_bands"][scale].values():
            for lo, hi in bands.values():
                assert lo < hi
