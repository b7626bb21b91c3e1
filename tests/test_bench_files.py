"""Every committed ``BENCH_<n>.json`` has the shape of ``BENCH_8.json`` and agrees with its runs.

A bench file records paired benchmark runs of a change against its parent:
what changed, the claim, how the runs were made, and per workload the
calibrated end-to-end metrics of both sides.  Its metric names must be the
end-to-end metrics that ``BENCHMARK.json`` declares.  Each summary (median,
quartiles, relative change, wins, the bound verdict) must follow from the
runs it summarises, the claimed metric must have moved the better way, and
every workload's runs must have answered correctly with none failed.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(
    (path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name)),
    key=lambda path: int(path.stem.split("_")[1]),
)
TEMPLATE = json.loads((ROOT / "BENCH_8.json").read_text())
END_TO_END = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WORKLOADS = {"sweep", "expr", "cli"}


def test_the_template_is_among_the_bench_files():
    assert ROOT / "BENCH_8.json" in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_a_bench_file_has_the_shape_of_bench_8(path):
    bench = json.loads(path.read_text())
    assert set(bench) == {"change", "parent", "claim", "method", "workloads"}
    assert isinstance(bench["change"], str) and bench["change"]
    assert isinstance(bench["parent"], str) and bench["parent"]
    claim = bench["claim"]
    assert set(claim) == {"workload", "metric", "expected"}
    assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
    assert set(bench["method"]) == set(TEMPLATE["method"])
    assert set(bench["workloads"]) == WORKLOADS
    workload_keys = set(TEMPLATE["workloads"]["sweep"])
    metric_keys = set(TEMPLATE["workloads"]["sweep"]["metrics"]["ops_per_s"])
    for name, workload in bench["workloads"].items():
        assert set(workload) == workload_keys, name
        pairs = workload["pairs"]
        assert pairs >= 1 and len(workload["seeds"]) == len(workload["first"]) == pairs, name
        assert set(workload["first"]) <= {"parent", "change"}, name
        assert set(workload["metrics"]) <= END_TO_END, name
        for metric, entry in workload["metrics"].items():
            assert set(entry) == metric_keys, (name, metric)
            assert len(entry["parent_runs"]) == len(entry["change_runs"]) == pairs, (name, metric)
            for side in ("parent", "change"):
                assert set(entry[side]) == {"median", "q1", "q3"}, (name, metric, side)
                assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"], (name, metric, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_run_of_a_bench_file_answered_correctly(path):
    # A run that answered wrongly measured a wrong program, whatever its speed.
    workloads = json.loads(path.read_text())["workloads"]
    assert {name: (w["correct"], w["failed"]) for name, w in workloads.items()} == {
        name: (True, 0) for name in WORKLOADS
    }


def _better(better, value, than):
    return value > than if better == "higher" else value < than


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_a_bench_file_agrees_with_its_own_runs(path):
    bench = json.loads(path.read_text())
    for name, workload in bench["workloads"].items():
        for metric, entry in workload["metrics"].items():
            where = (name, metric)
            runs = {"parent": entry["parent_runs"], "change": entry["change_runs"]}
            for side, values in runs.items():
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                summary = {"median": statistics.median(values), "q1": q1, "q3": q3}
                assert entry[side] == pytest.approx(summary, rel=1e-12), (*where, side)
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            relative = (change - parent) / parent
            assert entry["relative_change"] == pytest.approx(relative, rel=1e-9, abs=1e-15), where
            wins = sum(_better(entry["better"], c, p) for c, p in zip(runs["change"], runs["parent"]))
            assert entry["change_wins"] == wins, where
            worse = -relative if entry["better"] == "higher" else relative
            assert entry["worse_beyond_bound"] == (worse > entry["bound"]), where
    claim = bench["claim"]
    claimed = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert _better(claimed["better"], claimed["change"]["median"], claimed["parent"]["median"]), claim
