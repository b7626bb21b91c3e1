"""Benchmark a change against its parent in alternating pairs, and write a ``BENCH_<n>.json`` for a claim.

    python3 tools/bench_pair.py PARENT_TREE CHANGE_TREE --parent-rev SHA \\
        --change "what changed" --claim expr ops_per_s "+10% or more on the parent's median" \\
        --out BENCH_27.json
    python3 tools/bench_pair.py PARENT_TREE CHANGE_TREE    # no claim: summary only

Each tree is a source checkout without bytecode caches (``git archive`` of
a commit, for instance), and both must hold the same benchmark files: those
under the ``paths`` of ``BENCHMARK.json``, and ``BENCHMARK.json`` itself.
Each workload of ``BENCHMARK.json`` gets ten pairs of runs.  Pair i
(0-based) runs the benchmark command on seed 21 + i, with ``--seconds`` set
to the declared ``run_seconds`` and ``--trace 0``: in the parent first when
i is even, in the change first when i is odd.  Every run has
``PYTHONDONTWRITEBYTECODE=1``, so neither tree gains caches.  A run that
exits nonzero, or whose result reads other than ``correct: true`` and
``failed: 0``, stops the writer with no file written.  Every run prints, per
workload, its verdict and one line per end-to-end metric: the parent and
change medians, the relative change, the pairs the change won, and the
parent's interquartile range as a share of its median.  With ``--claim``
(which ``--parent-rev``, ``--change`` and ``--out`` go with) the file gets
the shape of
``BENCH_8.json``, which ``tests/test_bench_files.py`` checks, with the
calibrated end-to-end metrics of each run's last stdout line.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 21


def first_side(pair: int) -> str:
    return SIDES[pair % 2]


def benchmark_files_differ(parent: Path, change: Path, paths: list[str]) -> list[str]:
    """The benchmark files, run records and caches aside, that are not byte-identical in both trees."""
    differ, pending = [], ["BENCHMARK.json", *paths]
    while pending:
        name = pending.pop()
        left, right = parent / name, change / name
        if left.is_dir() and right.is_dir():
            children = {p.name for p in left.iterdir()} | {p.name for p in right.iterdir()}
            pending += [f"{name}/{child}" for child in children if child not in ("out", "__pycache__")]
        elif not (left.is_file() and right.is_file() and filecmp.cmp(left, right, shallow=False)):
            differ.append(name)
    return sorted(differ)


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def better(direction: str, value: float, than: float) -> bool:
    return value > than if direction == "higher" else value < than


def metric_entry(declared: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    """One metric of one workload, summarised from its paired runs."""
    parent, change = summary(parent_runs), summary(change_runs)
    relative = (change["median"] - parent["median"]) / parent["median"]
    worse = -relative if declared["better"] == "higher" else relative
    return {
        "unit": declared["unit"],
        "better": declared["better"],
        "bound": declared["bound"],
        "parent": parent,
        "change": change,
        "relative_change": relative,
        "change_wins": sum(better(declared["better"], c, p) for c, p in zip(change_runs, parent_runs)),
        "worse_beyond_bound": worse > declared["bound"],
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def metric_line(name: str, entry: dict, pairs: int) -> str:
    """A metric's summary: the medians, the relative change, the change's wins and the parent's IQR share."""
    parent = entry["parent"]
    iqr = (parent["q3"] - parent["q1"]) / parent["median"]
    return (f"{name} {parent['median']:.6g} -> {entry['change']['median']:.6g}"
            f" ({entry['relative_change']:+.1%}, {entry['change_wins']}/{pairs} wins, parent IQR {iqr:.1%})")


def workload_entry(end_to_end: list[dict], seeds: list[int], results: list[dict[str, dict]]) -> dict:
    """A workload's pairs; ``results[i]`` maps each side to its run's result for seed ``seeds[i]``."""
    runs = {side: [pair[side] for pair in results] for side in SIDES}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "first": [first_side(i) for i in range(len(seeds))],
        "correct": all(run["correct"] for side in SIDES for run in runs[side]),
        "failed": sum(run["failed"] for side in SIDES for run in runs[side]),
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "metrics": {
            declared["name"]: metric_entry(
                declared, *([run["metrics"][declared["name"]]["value"] for run in runs[side]] for side in SIDES)
            )
            for declared in end_to_end
        },
    }


def bench_file(benchmark: dict, parent_rev: str, change: str, claim: dict, workloads: dict[str, dict]) -> dict:
    command = " ".join(benchmark["command"])
    seeds = {name: f"{entry['seeds'][0]}-{entry['seeds'][-1]}" for name, entry in workloads.items()}
    return {
        "change": change,
        "parent": parent_rev,
        "claim": claim,
        "method": {
            "command": f"{command} --workload W --seed N --seconds {benchmark['run_seconds']} --trace 0",
            "checkouts": "parent and change each in a directory of its own without __pycache__,"
            " benchmark files byte-identical (checked before the runs)",
            "order": "pair i (0-based) runs parent first when i is even, change first when i is odd",
            "seeds": seeds,
            "metric_source": "the calibrated end-to-end metrics of the last stdout line of each run",
            "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
            "change_wins": "pairs in which the change's value is better than the parent's",
            "machine": f"{os.cpu_count()}-core {platform.system()}, Python {platform.python_version()},"
            " PYTHONDONTWRITEBYTECODE=1 (no bytecode caches)",
        },
        "workloads": workloads,
    }


def run_once(tree: Path, benchmark: dict, workload: str, seed: int) -> dict:
    argv = [*benchmark["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    # run.py exits 0 on wrong answers too; a wrong program's speed is no measurement.
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"error: {tree}: workload {workload}, seed {seed} read correct: {result.get('correct')},"
              f" failed: {result.get('failed')}", file=sys.stderr)
        raise SystemExit(2)
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--parent-rev", help="the parent commit, as the file names it")
    parser.add_argument("--change", dest="description", help="one line on what the change does")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "EXPECTED"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = (args.claim, args.parent_rev, args.description, args.out)
    if None in bench and any(value is not None for value in bench):
        parser.error("--claim, --parent-rev, --change and --out go together")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.claim and (args.claim[0] not in names or args.claim[1] not in {m["name"] for m in benchmark["end_to_end"]}):
        print("error: the claim must name a workload and an end-to-end metric of BENCHMARK.json", file=sys.stderr)
        return 2
    for tree in (args.parent, args.change):
        if any((tree / "src").rglob("__pycache__")):
            print(f"error: {tree}/src holds bytecode caches; export the trees without them", file=sys.stderr)
            return 2
    differ = benchmark_files_differ(args.parent, args.change, benchmark["paths"])
    if differ:
        print(f"error: benchmark files differ between the trees: {', '.join(differ)}", file=sys.stderr)
        return 2
    trees = {"parent": args.parent, "change": args.change}
    workloads = {}
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    for name in names:
        results = []
        for i, seed in enumerate(seeds):
            order = SIDES if first_side(i) == "parent" else SIDES[::-1]
            pair = {side: run_once(trees[side], benchmark, name, seed) for side in order}
            values = ", ".join(f"{side} {pair[side]['metrics']['ops_per_s']['value']:.6g}" for side in order)
            print(f"{name} seed {seed}: ops_per_s {values}", file=sys.stderr, flush=True)
            results.append(pair)
        workloads[name] = workload_entry(benchmark["end_to_end"], seeds, results)
    if args.claim:
        claim = dict(zip(("workload", "metric", "expected"), args.claim))
        bench = bench_file(benchmark, args.parent_rev, args.description, claim, workloads)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, entry in workloads.items():
        print(f"{name}: correct {entry['correct']}, failed {entry['failed']}")
        for metric, e in entry["metrics"].items():
            print(f"  {metric_line(metric, e, entry['pairs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
