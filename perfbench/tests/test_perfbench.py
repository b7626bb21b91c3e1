"""Tests for the benchmark's own pieces: inputs, reference, checks, tail and tracing."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_inputs():
    first = workloads.corpus_text(workloads.expr_chunk(11, 2)).encode()
    assert first == workloads.corpus_text(workloads.expr_chunk(11, 2)).encode()
    assert first != workloads.corpus_text(workloads.expr_chunk(12, 2)).encode()
    assert workloads.sweep_order(11, 2) == workloads.sweep_order(11, 2)
    assert workloads.sweep_order(11, 2) != workloads.sweep_order(11, 3)
    assert sorted(workloads.sweep_order(11, 2)) == sorted(workloads.sweep_triples())
    assert workloads.cli_order(11, 2) == workloads.cli_order(11, 2)


def test_corpus_respects_its_limits():
    chunk = workloads.expr_chunk(5, 0)
    degrees = [r for r, *_ in chunk]
    assert 0.4 < degrees.count(5) / len(chunk) < 0.6
    assert set(degrees) == {5, *workloads.OTHER_DEGREES}
    assert all("cat(" not in text for r, _, text, _ in chunk if r != 5)


def program_results(seed: int):
    ops, extract = child.expr_unit(seed, 0)
    return [extract(i, op()) for i, op in enumerate(ops)]


def test_expr_reference_agrees_and_flags_corruption():
    chunk = workloads.expr_chunk(3, 0)
    results = program_results(3)
    assert checks.check_expr(chunk, results) == []
    for query in workloads.QUERIES:
        i = next(k for k, item in enumerate(chunk) if item[1] == query)
        corrupted = list(results)
        if query == "chi":
            corrupted[i] = str(int(results[i].split("/")[0]) + 1)
        else:
            corrupted[i] = results[i][:2] + ["7/3"] + results[i][3:]
        assert checks.check_expr(chunk, corrupted) == [i]
    assert checks.check_expr(chunk, results[:-1]) == [len(chunk) - 1]


def test_sweep_check_accepts_the_program_and_flags_corruption():
    ops, extract = child.sweep_unit(4, 0)
    records = [extract(i, op()) for i, op in enumerate(ops)]
    keys = [workloads.triple_key(*t) for t in workloads.sweep_order(4, 0)]
    golden = checks.load_sweep_golden()
    assert golden["aggregates"] == {
        "conclusions": {"inconclusive": 575, "indecomposable-by-numeric-filters": 209},
        "filters": {"h0-mismatch": 148, "trivial-split": 196, "undecided": 111},
    }
    assert checks.check_sweep(keys, records, golden) == ([], [])
    i = next(k for k, r in enumerate(records) if r["survivors"])
    wrong_c3 = dict(records[i], survivors=[s[:4] + [s[4] + 2, s[5]] for s in records[i]["survivors"]])
    wrong_digest = dict(records[i], digest="0" * 16)
    for bad in (wrong_c3, wrong_digest):
        failed, _ = checks.check_sweep(keys, records[:i] + [bad] + records[i + 1:], golden)
        assert failed == [i]


@pytest.mark.parametrize("n", [20, 21, 99, 100, 101, 199, 200, 1009, 1010, 1999, 10009, 10010, 54321])
def test_tail_leaves_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    level = run.tail_level(n)
    value, beyond = run.tail(samples, level)
    assert sum(s > value for s in samples) == beyond >= 10
    higher = [lv for lv in run.TAIL_LEVELS if lv > level]
    if higher:
        with pytest.raises(ValueError):
            run.tail(samples, higher[-1])


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.tail_level(19)
    with pytest.raises(ValueError):
        run.tail(list(range(99)), 900)


def test_tail_level_is_fixed_per_workload():
    assert {w: run.workload_tail_level(w) for w in ("sweep", "expr", "cli")} == {
        "sweep": 950, "expr": 990, "cli": 900,
    }


def test_cli_tail_level_does_not_depend_on_the_block_count():
    rng = random.Random(7)
    blocks = [[rng.randrange(10**8, 2 * 10**8) for _ in workloads.CLI_MIX] for _ in range(30)]
    for count in (run.CLI_MIN_BLOCKS, 23, 30):
        figures = run.Figures(run.workload_tail_level("cli"), pooled=True)
        figures.units = [(lat, 1.0) for lat in blocks[:count]]
        figures.setups = [(0.04, 1.0)] * count
        got, beyond = figures.metrics(calibrated=False)
        every = sorted(t for lat in blocks[:count] for t in lat)
        assert got["latency_tail_ms"] == every[-(-9 * len(every) // 10) - 1] / 1e6
        assert beyond >= 10


def test_calibration_scales_times_down_and_rates_up_on_a_slow_machine():
    slow = 2 * calibrate.REFERENCE_NS
    assert calibrate.scale(slow, slow) == 0.5
    assert calibrate.scale(slow, 3 * calibrate.REFERENCE_NS) == 0.4
    for pooled in (False, True):
        figures = run.Figures(750, pooled=pooled)
        ops = [1_000_000 + 1000 * i for i in range(40)]
        figures.units = [(ops, 0.5)] * 3
        figures.setups = [(0.04, 0.5)] * 3
        calibrated, _ = figures.metrics(calibrated=True)
        raw, _ = figures.metrics(calibrated=False)
        assert calibrated["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
        for name in ("latency_p50_ms", "latency_tail_ms", "setup_s"):
            assert calibrated[name] == pytest.approx(raw[name] / 2)


def test_self_time_subtracts_direct_children():
    spans_ = [
        ["op", 0, 100, -1, 0],
        ["a", 10, 60, 0, 0],
        ["b", 20, 30, 1, 0],
        ["b", 40, 45, 1, 0],
        ["a", 70, 80, 0, 0],
    ]
    got = spans.summarize(spans_)
    assert got["op"] == {"calls": 1, "self_ms": 40 / 1e6}
    assert got["a"] == {"calls": 2, "self_ms": (35 + 10) / 1e6}
    assert got["b"] == {"calls": 2, "self_ms": 15 / 1e6}


def test_tracer_marks_missing_layers_absent_and_restores(monkeypatch):
    from acmbundles import analysis, bundles

    original = analysis.twist
    gone = ("gone.layer", ("calls",), (("bundles", "no_such_function"),))
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (gone,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["gone.layer"]
        assert analysis.twist is not original
        tracer.begin_op(0)
        analysis.twist(bundles.BundleDescriptor(1, 2), 1, analysis.QUINTIC)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert analysis.twist is original
    summary = tracer.summary()
    assert summary["bundles.twist"]["calls"] == 1
    assert summary["chowring.mul"]["calls"] == 1
    metrics = spans.layer_metrics(summary)
    assert metrics["gone.layer.calls"] == (0, "count")
    assert metrics["bundles.twist.calls"] == (1, "count")


COUNTS = ("calls", "candidates", "survivors", "filter.", "certified", "bytes")


def per_layer_names() -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == per_layer_names()
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if any(part in name for part in COUNTS)
    }


@pytest.mark.parametrize("workload", ["sweep", "expr", "cli"])
def test_per_layer_counts_repeat_exactly(workload):
    first = traced(workload, 1)
    assert first == traced(workload, 1)
    assert first["fractions.new.calls"] > 0
    if workload == "sweep":
        assert first["chowring.todd.calls"] == 1568
        assert first["analysis.candidates"] == 6404
    if workload == "expr":
        assert first["expr.parse.calls"] == workloads.EXPR_CHUNK
        assert first["expr.parse.bytes"] > 0
    else:
        # The sweep and the cli mix do the same work in any order.
        assert first == traced(workload, 2)


def test_layer_fields_match_the_declared_per_layer_metrics():
    names = set(spans.layer_metrics({}))
    assert names <= per_layer_names()
    assert len(names) == sum(len(fields) for _, fields, _ in spans.LAYERS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
