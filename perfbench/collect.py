"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py [--seeds 1-10] [--workloads sweep,expr,cli] [--out perfbench/out/collect.json]

Runs ``run.py`` once per workload and seed, for the ``run_seconds`` of
``BENCHMARK.json``, interleaving the workloads so slow drift on a shared
machine spreads over all of them, then one traced run per workload with the
first seed.  For each end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median, which is what the bounds
in ``BENCHMARK.json`` are compared against.  The same summary of the raw,
uncalibrated figures is kept under ``raw``.  ``perfbench/baseline.json`` is
this script's output on the parent commit of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2].removeprefix("record "))
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", type=lambda text: text.split(","), help="default: all of BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=run.OUT / "collect.json")
    args = parser.parse_args()

    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    names = args.workloads or [w["name"] for w in benchmark["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in args.seeds:
        for workload, results in runs.items():
            results.append(one(workload, seed, seconds, 0))
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload, results in runs.items():
        if not all(r["correct"] for r in results):
            raise SystemExit(f"{workload}: a run reported wrong outputs")
        metrics = {
            name: summary([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        raw = {
            name: summary([r["record"]["raw"][name] for r in results])
            for name in results[0]["record"]["raw"]
        }
        traced = one(workload, args.seeds[0], seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "raw": raw,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "records": [r["record"] for r in results] + [traced["record"]],
        }
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds.get(name, 1) / 3 else "  <-- above a third of the bound"
            uncalibrated = f"  (raw spread {raw[name]['spread']:.4f})" if name in raw else ""
            print(f"{workload:<6} {name:<16} median {s['median']:<12.6g} spread {s['spread']:.4f}{uncalibrated}{flag}")
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
