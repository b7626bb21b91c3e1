"""``tools/bench_pair.py`` writes what ``tests/test_bench_files.py`` accepts, and refuses unlike trees and wrong runs."""

import importlib.util
import json
from pathlib import Path

import pytest
import test_bench_files as bench_checks

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(scale: float) -> dict:
    """A run's last stdout line, with every end-to-end metric at ``scale``."""
    metrics = {m["name"]: {"value": scale, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}


def test_the_writer_builds_a_bench_file_that_its_checks_accept(tmp_path):
    seeds = [21, 22, 23, 24]
    workloads = {}
    for workload in BENCHMARK["workloads"]:
        # The change runs 10% higher than the parent on every metric.
        results = [{"parent": _result(1.0 + k / 100), "change": _result(1.1 + k / 100)} for k in range(len(seeds))]
        workloads[workload["name"]] = bench_pair.workload_entry(BENCHMARK["end_to_end"], seeds, results)
    claim = {"workload": "expr", "metric": "ops_per_s", "expected": "+10%"}
    bench = bench_pair.bench_file(BENCHMARK, "0000000", "a test change", claim, workloads)
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps(bench))
    bench_checks.test_a_bench_file_has_the_shape_of_bench_8(path)
    bench_checks.test_a_bench_file_agrees_with_its_own_runs(path)
    bench_checks.test_every_run_of_a_bench_file_answered_correctly(path)
    expr = bench["workloads"]["expr"]
    assert expr["first"] == ["parent", "change", "parent", "change"]
    assert expr["attempted"] == {"parent": 400, "change": 400} and expr["correct"] and expr["failed"] == 0
    assert expr["metrics"]["ops_per_s"]["change_wins"] == 4 and expr["metrics"]["setup_s"]["change_wins"] == 0
    assert bench["method"]["seeds"] == {"sweep": "21-24", "expr": "21-24", "cli": "21-24"}
    assert bench["method"]["command"] == "python3 perfbench/run.py --workload W --seed N --seconds 40 --trace 0"


def test_the_writer_refuses_trees_whose_benchmark_files_differ(tmp_path, capsys):
    trees = tmp_path / "parent", tmp_path / "change"
    for tree in trees:
        (tree / "perfbench" / "out").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("same\n")
        (tree / "perfbench" / "out" / f"{tree.name}.json").write_text(tree.name)  # run records differ freely
        (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    assert bench_pair.benchmark_files_differ(*trees, ["perfbench"]) == []
    (trees[1] / "perfbench" / "run.py").write_text("edited\n")
    (trees[1] / "perfbench" / "extra.py").write_text("")
    assert bench_pair.benchmark_files_differ(*trees, ["perfbench"]) == ["perfbench/extra.py", "perfbench/run.py"]
    argv = [str(trees[0]), str(trees[1]), "--parent-rev", "0", "--change", "x", "--claim", "expr", "ops_per_s", "+1%"]
    assert bench_pair.main(argv + ["--out", str(tmp_path / "BENCH_1.json")]) == 2
    assert "perfbench/extra.py, perfbench/run.py" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_1.json").exists()


# A stand-in for perfbench/run.py: prints the tree's own verdict.json as its result line.
FAKE_RUN = """import json, pathlib
print(json.dumps(json.loads(pathlib.Path("verdict.json").read_text())))
"""


def _fake_trees(tmp_path: Path, benchmark: dict = BENCHMARK, wrong: dict | None = None) -> dict[str, Path]:
    """Parent and change trees running ``FAKE_RUN``; ``wrong`` maps a side to the verdict keys it overrides."""
    trees = {side: tmp_path / side for side in bench_pair.SIDES}
    for side, tree in trees.items():
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tree / "BENCHMARK.json").write_text(json.dumps(benchmark))
        (tree / "verdict.json").write_text(json.dumps({**_result(1.0), **(wrong or {}).get(side, {})}))
    return trees


CLAIM = ["--parent-rev", "0", "--change", "x", "--claim", "sweep", "ops_per_s", "+1%"]


@pytest.mark.parametrize(
    "wrong_side, verdict",
    [
        ("change", {"correct": False, "failed": 0}),
        ("change", {"correct": True, "failed": 3}),
        ("parent", {"correct": None, "failed": 0}),
    ],
    ids=["change-incorrect", "change-failed", "parent-no-verdict"],
)
def test_the_writer_refuses_a_run_whose_answers_are_wrong(tmp_path, capsys, wrong_side, verdict):
    trees = _fake_trees(tmp_path, wrong={wrong_side: verdict})
    out = tmp_path / "BENCH_1.json"
    with pytest.raises(SystemExit) as stopped:
        bench_pair.main([str(trees["parent"]), str(trees["change"]), *CLAIM, "--out", str(out)])
    assert stopped.value.code == 2
    # Pair 0 runs the parent first, so either side's wrong answer stops the first pair.
    err = capsys.readouterr().err
    assert f"error: {trees[wrong_side]}: workload sweep, seed 21 read correct: {verdict['correct']}," in err
    assert f"failed: {verdict['failed']}" in err
    assert not out.exists()


def test_without_a_claim_a_wrong_run_still_exits_2(tmp_path, capsys):
    trees = _fake_trees(tmp_path, wrong={"change": {"correct": False}})
    with pytest.raises(SystemExit) as stopped:
        bench_pair.main([str(trees["parent"]), str(trees["change"])])
    assert stopped.value.code == 2
    assert f"error: {trees['change']}: workload sweep, seed 21 read correct: False, failed: 0" in capsys.readouterr().err


def test_without_a_claim_the_pairs_run_and_are_summarised_but_no_file_is_written(tmp_path, capsys):
    # One workload keeps the stand-in to 20 runs; the other declarations stay as BENCHMARK.json has them.
    trees = _fake_trees(tmp_path, {**BENCHMARK, "workloads": BENCHMARK["workloads"][:1]})
    before = sorted(tmp_path.rglob("*"))
    assert bench_pair.main([str(trees["parent"]), str(trees["change"])]) == 0
    assert sorted(tmp_path.rglob("*")) == before
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in err.splitlines()] == [f"sweep seed {seed}" for seed in range(21, 31)]
    lines = [f"  {m['name']} 1 -> 1 (+0.0%, 0/10 wins, parent IQR 0.0%)\n" for m in BENCHMARK["end_to_end"]]
    assert out == "sweep: correct True, failed 0\n" + "".join(lines)


def test_the_summary_gives_each_metric_its_medians_change_wins_and_the_parents_iqr_share(tmp_path, capsys):
    # The stand-in reads 1.0 in the parent and 1.1 in the change, on every metric and seed.
    trees = _fake_trees(tmp_path, {**BENCHMARK, "workloads": BENCHMARK["workloads"][:1]})
    (trees["change"] / "verdict.json").write_text(json.dumps(_result(1.1)))
    assert bench_pair.main([str(trees["parent"]), str(trees["change"])]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sweep: correct True, failed 0"
    wins = {"higher": 10, "lower": 0}
    assert out[1:] == [
        f"  {m['name']} 1 -> 1.1 (+10.0%, {wins[m['better']]}/10 wins, parent IQR 0.0%)" for m in BENCHMARK["end_to_end"]
    ]


def test_the_parents_iqr_share_is_its_quartile_gap_over_its_median():
    # Parent runs 80, 90, 100, 110, 120: quartiles 90 and 110 over a median of 100.
    results = [{"parent": _result(80.0 + 10 * k), "change": _result(95.0 + 10 * k)} for k in range(5)]
    entry = bench_pair.workload_entry(BENCHMARK["end_to_end"][:1], [21, 22, 23, 24, 25], results)
    line = bench_pair.metric_line("ops_per_s", entry["metrics"]["ops_per_s"], entry["pairs"])
    assert line == "ops_per_s 100 -> 115 (+15.0%, 5/5 wins, parent IQR 20.0%)"


@pytest.mark.parametrize(
    "given",
    [["--out", "BENCH_1.json"], ["--parent-rev", "0"], ["--change", "x"], CLAIM[:4], CLAIM[2:]],
    ids=["out", "parent-rev", "change", "rev-and-change", "claim-without-rev-or-out"],
)
def test_the_claim_options_go_together(tmp_path, capsys, given):
    trees = _fake_trees(tmp_path)
    with pytest.raises(SystemExit) as stopped:
        bench_pair.main([str(trees["parent"]), str(trees["change"]), *given])
    assert stopped.value.code == 2
    assert "--claim, --parent-rev, --change and --out go together" in capsys.readouterr().err
