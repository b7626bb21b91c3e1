"""Every committed ``BENCH_<n>.json`` has the shape of ``BENCH_8.json``.

A bench file records paired benchmark runs of a change against its parent:
what changed, the claim, how the runs were made, and per workload the
calibrated end-to-end metrics of both sides.  Its metric names must be the
end-to-end metrics that ``BENCHMARK.json`` declares.
"""

import json
import re
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
